//! Interned symbols for type, predicate and label names.
//!
//! The paper assumes three disjoint sets of names (associations `A`, classes
//! `C`, domains `D`) plus a set of labels `L` that may share elements with
//! the others. We intern all of them in one table; the schema keeps the
//! namespaces apart.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use rustc_hash::FxHashMap;

/// An interned string. Cheap to copy, hash and compare; resolves back to the
/// original text via [`Sym::as_str`].
///
/// Ordering is *lexicographic on the underlying string*, not on intern ids,
/// so canonical forms (sorted tuple fields, printed schemas) are stable
/// across processes regardless of interning order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

thread_local! {
    /// This thread's copy of a prefix of the interner's `strings`. The
    /// table is append-only, so a copied entry never goes stale; a lookup
    /// past the copy's end refreshes it under the mutex.
    static LOCAL_STRINGS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: FxHashMap::default(),
            strings: Vec::new(),
        })
    })
}

impl Sym {
    /// Interns `s` and returns its symbol. Idempotent.
    pub fn new(s: &str) -> Sym {
        let mut int = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = int.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(int.strings.len()).expect("symbol table overflow");
        int.strings.push(leaked);
        int.map.insert(leaked, id);
        Sym(id)
    }

    /// The interned text. Read from this thread's copy of the table, so it
    /// takes neither the interner's lock nor any atomic read-modify-write
    /// once the copy holds the symbol; only a symbol interned since the
    /// copy was last refreshed locks the table to extend it.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        let local = LOCAL_STRINGS.try_with(|local| {
            if let Some(&s) = local.borrow().get(id) {
                return s;
            }
            let int = interner().lock().expect("symbol interner poisoned");
            let mut local = local.borrow_mut();
            let have = local.len();
            local.extend_from_slice(&int.strings[have..]);
            local[id]
        });
        // During thread teardown the copy may be gone: read the table.
        local.unwrap_or_else(|_| interner().lock().expect("symbol interner poisoned").strings[id])
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("person");
        let b = Sym::new("person");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "person");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(Sym::new("student"), Sym::new("professor"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse lexicographic order on purpose.
        let z = Sym::new("zzz_order_test");
        let a = Sym::new("aaa_order_test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn concurrent_interning_orders_like_the_text() {
        // Threads released together intern fresh names while comparing
        // them with names other threads interned, so each thread's copy of
        // the table is refreshed while the table grows.
        const THREADS: usize = 4;
        const NAMES: usize = 200;
        let barrier = std::sync::Barrier::new(THREADS);
        let names = |t: usize| -> Vec<String> {
            (0..NAMES)
                .map(|i| format!("concurrent_{}_{t}", (i * 7919 + t * 31) % 1000))
                .collect()
        };
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let own = names(t);
                    let other = names((t + 1) % THREADS);
                    for (i, a) in own.iter().enumerate() {
                        let sa = Sym::new(a);
                        assert_eq!(sa.as_str(), a);
                        for b in other.iter().take(i + 1) {
                            let sb = Sym::new(b);
                            assert_eq!(sa.cmp(&sb), a.as_str().cmp(b.as_str()), "{a} vs {b}");
                            assert_eq!(sb.as_str(), b);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn display_round_trips() {
        let s = Sym::new("h_team");
        assert_eq!(format!("{s}"), "h_team");
        assert_eq!(format!("{s:?}"), "\"h_team\"");
    }
}
