(** The Off/Warn/Reject enforcement policy shared by every defense
    layer — load-time verification (Verify), budget admission (Vcost)
    and state auditing (Audit.Engine).  One parser, one name table and
    one environment-seeding helper, so the layers cannot drift apart.
    Each layer re-exports the type with an equation
    ([type policy = Ppolicy.t = Off | Warn | Reject]) and keeps its own
    process default; a world's override is a typed [t option] on its
    kernel ([Kernel.policy]), parsed once, at the flag or the
    environment, never when read. *)

type t = Off | Warn | Reject

val of_string : string -> t option
(** Case-insensitive, whitespace-trimmed: "off" | "warn" | "reject". *)

val name : t -> string

val seed_env :
  string -> parse:(string -> 'a option) -> expected:string -> set:('a -> unit) -> unit
(** [seed_env var ~parse ~expected ~set] reads [var] from the
    environment and applies [set] to the parsed value; unparseable
    values warn on stderr (naming [expected]) instead of failing the
    process.  Generic over [parse] so the same helper seeds policies
    (PALLADIUM_VERIFY / AUDIT / BUDGET) and other enumerations
    (PALLADIUM_BACKEND, PALLADIUM_ENGINE-style selectors). *)
