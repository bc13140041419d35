//! The one offline replay driver: recorded [`TraceEvent`]s into any
//! [`RaceDetector`], dispatched on [`Op::class`](ddrace_program::Op::class)
//! exactly as the simulator dispatches them under continuous analysis.

use crate::RaceDetector;
use ddrace_program::{OpClass, TraceEvent};

/// Replays one recorded event into `detector`: a checked access goes to
/// `on_access`, sync and thread-management ops to `on_sync`, compute to
/// nothing, and the thread and barrier lifecycle events to their hooks.
#[inline]
pub fn replay_event<D: RaceDetector + ?Sized>(detector: &mut D, event: &TraceEvent) {
    match event {
        TraceEvent::ThreadStarted { tid, parent } => detector.on_thread_start(*tid, *parent),
        TraceEvent::ThreadFinished { tid } => detector.on_thread_finish(*tid),
        TraceEvent::BarrierReleased {
            barrier,
            participants,
        } => detector.on_barrier_release(*barrier, participants),
        TraceEvent::Op { tid, op } => match op.class() {
            OpClass::Checked(addr, kind) => {
                detector.on_access(*tid, addr, kind);
            }
            OpClass::Sync(..) | OpClass::ThreadMgmt => detector.on_sync(*tid, op),
            OpClass::Compute(_) => {}
        },
    }
}

/// Replays a recorded event stream into `detector`; see [`replay_event`].
/// Offline re-detection from a simulator- or monitor-recorded trace goes
/// through here.
///
/// # Examples
///
/// ```
/// use ddrace_detector::{replay, DetectorConfig, FastTrack, RaceDetector};
/// use ddrace_program::{ProgramBuilder, SchedulerConfig, ThreadId, Trace};
///
/// let mut b = ProgramBuilder::new();
/// let x = b.alloc_shared(8).base();
/// let t1 = b.add_thread();
/// b.on(ThreadId::MAIN).fork(t1).write(x).join(t1);
/// b.on(t1).write(x);
/// let trace = Trace::record(b.build(), SchedulerConfig::default())?;
///
/// let mut ft = FastTrack::new(DetectorConfig::default());
/// replay(&mut ft, trace.events());
/// assert_eq!(ft.reports().distinct(), 1);
/// # Ok::<(), ddrace_program::ScheduleError>(())
/// ```
pub fn replay<'a, D, I>(detector: &mut D, events: I)
where
    D: RaceDetector + ?Sized,
    I: IntoIterator<Item = &'a TraceEvent>,
{
    for event in events {
        replay_event(detector, event);
    }
}
