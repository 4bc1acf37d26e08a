//! A `RecordReader` factory straight under [`par::drive`] — how a generated
//! module plugs into the sharded driver (`#[path]`-included, so each test
//! crate compiles its own copy).
#![allow(dead_code)]

use pads::{Charset, ErrorBudget, ParseDesc, RecordDiscipline, RecoveryPolicy, ResumePoint};
use pads_runtime::par::{self, Job, RecordReader};
use pads_runtime::Cursor;

/// `open(slice, policy, start)` builds a reader over `slice` under `policy`,
/// positioned at `start` with its budget restored.
pub struct Readers<O>(pub O);

impl<O> Readers<O> {
    /// The records of `data` from `resume` on, in a `(jobs, max_inflight)`
    /// geometry, with the final budget. Every corpus here is newline-framed
    /// ASCII.
    pub fn sharded_from<'d, R>(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
        (jobs, max_inflight): (usize, usize),
        resume: ResumePoint,
    ) -> (Vec<(R::Item, ParseDesc)>, ErrorBudget)
    where
        R: RecordReader,
        R::Item: Send,
        O: Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R + Sync,
    {
        let job = Job {
            data,
            discipline: RecordDiscipline::Newline,
            charset: Charset::Ascii,
            policy,
            jobs,
            max_inflight,
            resume,
        };
        let mut items = Vec::new();
        let mut next = resume.record;
        let budget = par::drive(
            &job,
            |slice, policy, start| (self.0(slice, policy, start), || None::<()>),
            |chunk, _harvest| {
                for parsed in chunk.drain(..) {
                    assert_eq!(parsed.progress.record, next, "progress is dense and in record order");
                    next += 1;
                    items.push((parsed.item, parsed.pd));
                }
            },
        );
        (items, budget)
    }
}

/// A cursor over `slice` under `policy`, at `start` with its budget
/// restored: where a generated record reader opens.
pub fn cursor_at(slice: &[u8], policy: RecoveryPolicy, start: ResumePoint) -> Cursor<'_> {
    let mut cur = Cursor::new(slice).with_policy(policy).with_start(start.offset, start.record);
    cur.set_budget(start.budget);
    cur
}
