(* Per-sink state of the event tracer: one {!Ring} of entries per
   {!Sink}, plus its enabled flag.

   This module holds the event vocabulary; {!Trace} is the facade that
   routes the classic global-looking API through the current sink's
   ring.  [emit] here is unconditional — enabling/disabling is the
   facade's concern — so {!Sink.merge} can replay one ring into
   another regardless of the destination's enabled flag. *)

type event =
  | Priv_transition of { from_ring : int; to_ring : int; via : string }
  | Fault of { vector : int; detail : string }
  | Module_load of { name : string; mechanism : string }
  | Module_unload of { name : string }
  | Protected_call of { fn : string; outcome : string; cycles : int }
  | Syscall of { number : int; name : string; ret : int }
  | Watchdog_expiry of { used : int; limit : int }
  | Desc_mutation of { table : string; slot : int; action : string }
  | Audit_outcome of { context : string; outcome : string; findings : int }
  | Custom of string

type entry = { seq : int; at_cycles : int; event : event }

type ring = { mutable enabled : bool; entries : entry Ring.t }

let default_capacity = 1024

let create_ring capacity = { enabled = false; entries = Ring.create capacity }

(* An entry's [seq] is its push number in the ring. *)
let emit ?(cycles = 0) ring event =
  let r = ring.entries in
  Ring.push r { seq = Ring.pushed r; at_cycles = cycles; event }
