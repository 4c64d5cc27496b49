//! Names formatted on their first read.
//!
//! A world names every link, FIFO and trace track it creates, but only a
//! trace export, the metrics registry or a deadlock report ever reads a
//! name. A [`Name`] built by [`Name::deferred`] holds a formatting `fn`
//! and a few integers; its text is formatted on the first read and kept,
//! so every reader sees the bytes an eagerly formatted name would have
//! held, and a name read on every metrics record is formatted once.

use std::cell::OnceCell;

/// How many integers a deferred name carries.
pub const NAME_ARGS: usize = 6;

/// The name of a link, FIFO or trace track. Built from a `String` or
/// `&str` it holds that text; built by [`Name::deferred`] it is formatted
/// on its first read.
pub struct Name {
    text: OnceCell<String>,
    render: fn([u32; NAME_ARGS]) -> String,
    args: [u32; NAME_ARGS],
}

impl Name {
    /// A name that `render` formats from `args` (zero-padded to
    /// [`NAME_ARGS`]) on its first read. `render` is a plain `fn`, so
    /// creating the name allocates and formats nothing.
    ///
    /// ```
    /// use detsim::Name;
    ///
    /// let name = Name::deferred(|[n, g, ..]| format!("n{n}.g{g}.engine"), &[3, 5]);
    /// assert_eq!(name.get(), "n3.g5.engine");
    /// ```
    pub fn deferred(render: fn([u32; NAME_ARGS]) -> String, args: &[usize]) -> Name {
        assert!(
            args.len() <= NAME_ARGS,
            "a name carries at most {NAME_ARGS} integers"
        );
        let mut packed = [0; NAME_ARGS];
        for (slot, &arg) in packed.iter_mut().zip(args) {
            *slot = u32::try_from(arg).expect("name argument exceeds u32");
        }
        Name {
            text: OnceCell::new(),
            render,
            args: packed,
        }
    }

    /// The text, formatted on the first call and kept.
    pub fn get(&self) -> &str {
        self.text.get_or_init(|| (self.render)(self.args))
    }
}

/// The `render` of a name whose text was given at creation; never called.
fn given(_: [u32; NAME_ARGS]) -> String {
    unreachable!("a given name is never formatted")
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name {
            text: OnceCell::from(text),
            render: given,
            args: [0; NAME_ARGS],
        }
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::from(text.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static RENDERS: Cell<usize> = const { Cell::new(0) };
    }

    fn counted([r, ..]: [u32; NAME_ARGS]) -> String {
        RENDERS.with(|c| c.set(c.get() + 1));
        format!("r{r}.shm")
    }

    #[test]
    fn deferred_name_is_formatted_once_on_first_read() {
        let name = Name::deferred(counted, &[7]);
        assert_eq!(RENDERS.with(Cell::get), 0, "creation formats nothing");
        assert_eq!(name.get(), "r7.shm");
        assert_eq!(name.get(), "r7.shm");
        assert_eq!(RENDERS.with(Cell::get), 1);
    }

    #[test]
    fn given_text_reads_back() {
        assert_eq!(Name::from("wire").get(), "wire");
        assert_eq!(Name::from(String::from("q")).get(), "q");
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn oversized_argument_is_refused() {
        let _ = Name::deferred(counted, &[u32::MAX as usize + 1]);
    }
}
