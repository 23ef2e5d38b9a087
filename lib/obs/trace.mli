(** Bounded ring-buffer event tracer (off by default).

    Hot call sites should guard with [if Trace.on () then Trace.emit …]
    so the disabled cost is a single boolean load — [emit] also checks,
    but the guard avoids constructing the event. *)

type event =
  | Priv_transition of { from_ring : int; to_ring : int; via : string }
      (** a privilege-level crossing ([lcall]/[lret]/[int]/[iret]) *)
  | Fault of { vector : int; detail : string }
  | Module_load of { name : string; mechanism : string }
  | Module_unload of { name : string }
  | Protected_call of { fn : string; outcome : string; cycles : int }
  | Syscall of { number : int; name : string; ret : int }
  | Watchdog_expiry of { used : int; limit : int }
  | Desc_mutation of { table : string; slot : int; action : string }
      (** a descriptor-table write ([set]/[clear]/[alloc]) — the
          protection-state churn the auditor re-checks *)
  | Audit_outcome of { context : string; outcome : string; findings : int }
      (** result of a protection-state audit ([pass]/[warn]/[reject]) *)
  | Custom of string

type entry = { seq : int; at_cycles : int; event : event }
(** [seq] is the entry's push number in the ring since the last
    {!clear}. *)

val on : unit -> bool

val set_enabled : bool -> unit

val capacity : unit -> int

val set_capacity : int -> unit
(** Reallocates the ring, preserving the newest
    [min (length ()) new_capacity] buffered entries (oldest-first
    order and sequence numbers kept); entries that no longer fit are
    added to {!dropped}.  Raises [Invalid_argument] on a non-positive
    capacity. *)

val emit : ?cycles:int -> event -> unit
(** No-op while disabled.  Overwrites the oldest entry when full. *)

val events : unit -> entry list
(** Buffered entries, oldest first. *)

val length : unit -> int

val dropped : unit -> int
(** Events lost to ring overflow since the last {!clear}. *)

val clear : unit -> unit

val kind_of_event : event -> string
(** Short family tag: ["priv"], ["fault"], ["module"], ["call"],
    ["syscall"], ["watchdog"], ["desc"], ["audit"] or ["custom"] — the
    vocabulary of the CLI's [--filter]. *)

val entry_to_json : entry -> Json.t
(** [{seq; at_cycles; kind; ...payload fields}]. *)

val to_json : unit -> Json.t
(** The whole buffer: [{events; dropped; capacity}]. *)

val pp_event : Format.formatter -> event -> unit

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> unit -> unit
(** Pretty-print the whole buffer, oldest first. *)
