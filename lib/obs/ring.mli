(** Bounded ring keeping the newest values.

    Pushes are numbered from 0, so a reader takes a window of its own
    pushes: [pushed r] before an operation, [since r seq] after it.
    When full, each push overwrites the oldest value and counts it in
    {!dropped}.  Storage is allocated on the first push. *)

type 'a t

val create : int -> 'a t
(** Raises [Invalid_argument] when the capacity is < 1. *)

val capacity : 'a t -> int

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val pushed : 'a t -> int
(** Pushes since {!create} or {!clear}: the next push's number. *)

val dropped : 'a t -> int
(** Values lost to overwrite or {!resize}, plus {!add_dropped}. *)

val add_dropped : 'a t -> int -> unit

val to_list : 'a t -> 'a list
(** Buffered values, oldest first. *)

val since : 'a t -> int -> 'a list
(** The buffered values numbered [>= seq], oldest first. *)

val last : 'a t -> 'a option

val resize : 'a t -> int -> unit
(** Keeps the newest [min (length r) n] values and their numbers; the
    rest count as dropped.  Raises [Invalid_argument] when [n] < 1. *)

val clear : 'a t -> unit
(** Empties the ring and resets {!pushed} and {!dropped} to 0. *)
