/// Declares a fieldless `#[repr($repr)]` enum from one table. Every
/// enumerated thing this stack exposes under a stable name — a metric, a
/// trace kind, a failpoint site, a wire opcode or error code, a health
/// state — is one row, `Variant [= repr] => "stable_name", "help"`, and the
/// row is the only place the entry is written: the macro derives `ALL`
/// (declaration order), `COUNT`, `name`, `help`, `from_name` and `from_repr`
/// from it. The help text is also the variant's doc comment, so it reads as
/// rustdoc (intra-doc links resolve) and as exposition text. Attributes and
/// doc comments before `enum` land on the enum. Two rows with one name are
/// an unreachable-pattern warning in `from_name`, which the build denies.
///
/// ```
/// ampc_obs::catalog! {
///     /// Answers a door can give.
///     pub enum Door: u8 {
///         Open = 1 => "open", "The door is open.",
///         Shut = 4 => "shut", "The door is shut.",
///     }
/// }
/// assert_eq!(Door::ALL, [Door::Open, Door::Shut]);
/// assert_eq!((Door::COUNT, Door::Shut.name(), Door::Open.help()), (2, "shut", "The door is open."));
/// assert_eq!((Door::from_name("open"), Door::from_repr(4), Door::from_repr(2)), (Some(Door::Open), Some(Door::Shut), None));
/// ```
#[macro_export]
macro_rules! catalog {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident: $repr:ty {
            $($Variant:ident $(= $value:literal)? => $name:literal, $help:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr($repr)]
        $vis enum $Name {
            $(#[doc = $help] $Variant $(= $value)?,)+
        }

        impl $Name {
            /// Number of entries.
            pub const COUNT: usize = [$($name),+].len();
            /// Every entry, in declaration order.
            pub const ALL: [$Name; Self::COUNT] = [$($Name::$Variant),+];

            /// The entry's stable name: what text, JSON and the CLI call it.
            pub const fn name(self) -> &'static str {
                match self {
                    $($Name::$Variant => $name,)+
                }
            }

            /// One line on what the entry is (also its doc comment).
            pub const fn help(self) -> &'static str {
                match self {
                    $($Name::$Variant => $help,)+
                }
            }

            /// The entry with this stable name.
            pub fn from_name(name: &str) -> Option<$Name> {
                match name {
                    $($name => Some($Name::$Variant),)+
                    _ => None,
                }
            }

            /// The entry with this discriminant; `None` for every other value.
            pub const fn from_repr(repr: $repr) -> Option<$Name> {
                match repr {
                    $(r if r == $Name::$Variant as $repr => Some($Name::$Variant),)+
                    _ => None,
                }
            }
        }
    };
}
