(** The simulated CPU: executes {!Instr.t} programs under the full x86
    segment- and page-level protection checks with Pentium cycle
    accounting. *)

type flags = { mutable zf : bool; mutable cf : bool; mutable lt : bool }

type fault_action = Fault_continue | Fault_stop

type stop = Halted | Max_instructions | Fault_abort of X86.Fault.t

type engine = Interp | Blocks
(** [Interp] single-steps every instruction; [Blocks] dispatches
    cached basic blocks (installed by {!Bexec.attach}) with fallback
    to the slow path.  Cycle accounting, protection checks and
    counters are bit-identical between the two. *)

type t

val create :
  mmu:X86.Mmu.t ->
  code:Code_mem.t ->
  view:X86.Desc_table.view ->
  idt:X86.Desc_table.t ->
  tss:Tss.t ->
  ?params:Cycles.params ->
  unit ->
  t

(** {2 State access} *)

val cycles : t -> int

val charge : t -> int -> unit

val instructions : t -> int

val cpl : t -> X86.Privilege.ring

val get_reg : t -> Reg.t -> int

val set_reg : t -> Reg.t -> int -> unit

val eip : t -> int

val set_eip : t -> int -> unit

val halted : t -> bool

val set_halted : t -> bool -> unit

val view : t -> X86.Desc_table.view

val set_view : t -> X86.Desc_table.view -> unit

val tss : t -> Tss.t

val mmu : t -> X86.Mmu.t

val code : t -> Code_mem.t

val params : t -> Cycles.params

val seg_reg : t -> Reg.sreg -> X86.Segmentation.loaded

val force_seg : t -> Reg.sreg -> X86.Segmentation.loaded -> unit
(** Set a segment register without checks (boot / task-switch only). *)

val null_loaded : X86.Segmentation.loaded

(** {2 Phase marks (cycle attribution)} *)

val marks : t -> (string * int) list
(** [(name, cycle-count-at-mark)] of the newest {!mark_capacity}
    marks, in program order. *)

val mark_capacity : int

val mark_seq : t -> int
(** Marks executed so far.  A call's marks are
    [marks_since t seq] with [seq] read before the call. *)

val marks_since : t -> int -> (string * int) list

(** {2 Hooks} *)

val register_handler : t -> string -> (t -> unit) -> unit
(** Target of the [Kcall] pseudo-instruction. *)

val set_on_fault : t -> (t -> X86.Fault.t -> fault_action) option -> unit

val set_on_instr : t -> (t -> unit) option -> unit

val set_on_tick : t -> every:int -> (t -> unit) option -> unit
(** Install a callback fired before every [every]-th instruction (the
    simulated timer interrupt; the kernel's watchdog lives here).  The
    countdown is CPU-owned, so the block engine services it with one
    decrement per slot instead of leaving its fast path: prefer this
    over {!set_on_instr} for periodic checks. *)

val reset_tick : t -> unit
(** Restart the tick period (e.g. when arming a watchdog). *)

val on_tick : t -> (t -> unit) option
(** The installed tick callback, for wrapping: a subsystem that wants
    to piggyback on an existing periodic tick (e.g. the telemetry
    collector chaining onto the kernel watchdog) reads the current
    callback, then installs a wrapper that calls it first. *)

val tick_every : t -> int
(** The installed tick period in instructions. *)

val set_tracing : t -> bool -> unit

val recent_trace : ?n:int -> t -> (int * Instr.t) list
(** The newest [n] traced instructions in program order.  The trace is
    kept in a bounded ring (capacity {!trace_capacity}), so long runs
    with tracing enabled use constant memory. *)

val trace_capacity : int

(** {2 Memory and stack helpers (respecting all protection checks)} *)

val read_mem : t -> X86.Segmentation.loaded -> offset:int -> size:int -> int

val write_mem :
  t -> X86.Segmentation.loaded -> offset:int -> size:int -> int -> unit

val push_u32 : t -> int -> unit

val pop_u32 : t -> int

(** {2 Execution} *)

val step : t -> unit
(** Execute one instruction; raises {!X86.Fault.Fault}. *)

val run : ?max_instrs:int -> t -> stop
(** Runs until halt, fuel exhaustion or an unhandled fault.
    [max_instrs] counts *retired* instructions: a faulting instruction
    whose fault the hook handles ([Fault_continue]) retired nothing
    and consumes no fuel. *)

(** {2 Block-engine SPI}

    Used by {!Bexec} to install and drive the basic-block execution
    engine; regular clients never need these. *)

val engine : t -> engine

val set_engine : t -> engine -> unit

val set_block_dispatch : t -> (t -> int -> int) option -> unit
(** [dispatch t fuel] executes at most [fuel] instructions from cached
    blocks (falling back to {!step} internally) and returns the number
    retired.  Installed by [Bexec.attach]; only consulted when the
    engine is [Blocks]. *)

val note_dispatch_progress : t -> int -> unit
(** A dispatcher about to re-raise a fault records how many
    instructions it retired first, keeping [run]'s fuel exact. *)

val cache_epoch : t -> int
(** Bumped on every CR3 load ({!switch_task}); block caches treat a
    change as a full invalidation. *)

val flags : t -> flags

val regs_array : t -> int array
(** The live register file, indexed by {!Reg.index}.  Engine SPI: a
    block engine may capture this (and {!flags}) at translation time —
    both are allocated once per CPU and never replaced — so
    pre-resolved closures can read and write registers without a call
    per operand.  Values stored through it must already be masked to
    32 bits. *)

val cond_holds : t -> Instr.cond -> bool

val tracing : t -> bool

val on_instr : t -> (t -> unit) option

val trace_push : t -> int -> Instr.t -> unit

val tick_step : t -> bool
(** Count one instruction against the tick period; [true] means the
    callback is due.  The engine flushes pending accounting and puts
    EIP in place, then calls {!tick_fire}. *)

val tick_fire : t -> unit

val tick_left : t -> int
(** Remaining instructions before the next tick ([max_int] when no
    tick is installed): the fast loop caches this in a local,
    decrements it per slot, and restores the balance with
    {!set_tick_left} on every exit to the slow path. *)

val set_tick_left : t -> int -> unit

val add_instructions : t -> int -> unit
(** Batch-credit retired instructions (instance field and the
    [machine.instructions] counter). *)

val fetch_translate : t -> int -> unit
(** Fetch-side page translation of one instruction slot at a linear
    address, exactly as the slow path performs it (TLB statistics,
    walk charging, page faults). *)

val exec_instr : t -> Instr.t -> unit
(** The interpreter's execute stage; [eip] must already point at the
    instruction. *)

(** {2 State capture and task switch} *)

type saved_state

val save_state : t -> saved_state

val restore_state : t -> saved_state -> unit

val switch_task : t -> view:X86.Desc_table.view -> tss:Tss.t -> unit

val pp_state : t Fmt.t
