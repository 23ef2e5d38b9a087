(** Per-invocation CPU-time limits on extensions, enforced at
    simulated timer ticks (paper section 4.5.2). *)

type expiry = { wd_limit : int; wd_used : int }

exception Expired of expiry

type t

val default_limit_cycles : int

val create : ?tick_instrs:int -> unit -> t
(** [tick_instrs] is the number of instructions between checks (the
    timer-interrupt period).  The countdown is driven by the CPU's
    periodic tick ({!Cpu.set_on_tick}), not by this module. *)

val tick_instrs : t -> int

val arm : t -> now:int -> ?limit:int -> unit -> unit

val disarm : t -> unit

val is_armed : t -> bool

val check : t -> now:int -> unit
(** Timer-tick body; raises {!Expired} when the armed budget is
    exceeded. *)
