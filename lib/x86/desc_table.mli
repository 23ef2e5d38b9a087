(** Descriptor tables (GDT and per-task LDTs). *)

type t

val create : ?capacity:int -> name:string -> is_gdt:bool -> unit -> t

val gdt : ?capacity:int -> unit -> t
(** A fresh GDT whose entry 0 is the unusable null descriptor. *)

val ldt : ?capacity:int -> string -> t

val is_gdt : t -> bool

val capacity : t -> int

val set : t -> int -> Descriptor.t -> unit
(** Install a descriptor; raises [Invalid_argument] on GDT slot 0. *)

val unsafe_set : t -> int -> Descriptor.t -> unit
(** Like {!set} but allows GDT slot 0 — a fault-injection hook for the
    protection-state auditor's misconfiguration catalogue.  Never used
    by the kernel substrate. *)

val clear : t -> int -> unit
(** Empty a slot (counts as a descriptor write). *)

val alloc : t -> Descriptor.t -> int
(** Install into the lowest free slot (never slot 0, in any table —
    LDT slot 0 is reserved for null-selector hygiene) and return its
    index. *)

val get : t -> int -> Descriptor.t option

val lookup : t -> Selector.t -> Descriptor.t
(** Descriptor fetch as done by a segment-register load; raises
    {!Fault.Fault} on the null selector, empty slots and not-present
    segments. *)

val writes : t -> int
(** Descriptor installs so far.  A change stamp, not a statistic:
    [Paudit.generation] sums it over the tables to tell whether the
    protection state moved since the last audit. *)

val iter : t -> (int -> Descriptor.t -> unit) -> unit

val pp : t Fmt.t

(** GDT plus current LDT, for resolving any selector. *)
type view = { vgdt : t; vldt : t option }

val view : ?ldt:t -> t -> view

val resolve : view -> Selector.t -> Descriptor.t
