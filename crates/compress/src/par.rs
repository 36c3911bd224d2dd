//! The workspace's one fork-join: every threaded pass — the pass-1 Gram
//! waves, the SVDD pass-2 waves, the `U` emission bands, the query
//! engine's partition walk and batched cells — hands its work items to
//! [`fork_join`], so the thread primitive behind them is named in
//! exactly one place.

use ats_common::{AtsError, Result};

/// Run `f` over every item on its own scoped thread and return the
/// results in item order; a panicking worker surfaces as
/// [`AtsError::Internal`] naming `what`. Items are taken by value, so
/// disjoint `&mut` bands can be handed out. A lone item runs inline on
/// the calling thread, and no item at all gives an empty `Vec`.
///
/// Callers that need at most `threads` workers at once split their
/// items into waves (`chunks(threads)`) and call this once per wave:
/// the results of a wave come back in order, so a fold over them keeps
/// the serial association whatever the thread count.
pub fn fork_join<I, R, F>(items: I, what: &str, f: F) -> Result<Vec<R>>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> Result<R> + Sync,
{
    let mut items = items.into_iter();
    if items.len() <= 1 {
        return match items.next() {
            Some(only) => Ok(vec![f(only)?]),
            None => Ok(Vec::new()),
        };
    }
    crossbeam::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.map(|item| scope.spawn(move |_| f(item))).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(AtsError::internal(format!("{what} worker panicked"))),
            })
            .collect()
    })
    .map_err(|_| AtsError::internal(format!("{what} thread scope panicked")))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn results_come_back_in_item_order() {
        let got = fork_join(0..17u32, "square", |i| Ok(i * i)).unwrap();
        assert_eq!(got, (0..17u32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_lone_item_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let got = fork_join([()], "lone", |()| Ok(thread::current().id())).unwrap();
        assert_eq!(got, vec![caller]);
    }

    #[test]
    fn no_items_give_an_empty_vec() {
        let got: Vec<u8> = fork_join(Vec::<u8>::new(), "none", Ok).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn mutable_bands_are_written_in_place() {
        let mut data = vec![0u32; 10];
        fork_join(data.chunks_mut(3).enumerate(), "band", |(c, band)| {
            band.fill(c as u32 + 1);
            Ok(())
        })
        .unwrap();
        assert_eq!(data, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn a_worker_error_is_returned() {
        let r = fork_join(0..4, "failing", |i| {
            if i == 2 {
                Err(AtsError::InvalidArgument("item 2".into()))
            } else {
                Ok(i)
            }
        });
        assert!(matches!(r, Err(AtsError::InvalidArgument(m)) if m == "item 2"));
    }

    #[test]
    fn a_panicking_worker_becomes_an_internal_error_naming_what() {
        let r = fork_join(0..3, "gram block", |i| {
            if i == 1 {
                panic!("worker {i} gave up");
            }
            Ok(i)
        });
        match r {
            Err(AtsError::Internal(msg)) => assert!(msg.contains("gram block"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
