(** The kernel-level extension mechanism (paper section 4.3).

    Extension modules are loaded into a dedicated {e extension
    segment}: a sub-range of the 3-4 GByte kernel space behind DPL 1
    code/data descriptors.  The segment limit and SPL checks confine
    the extension; the kernel invokes its services through the
    Extension Function Table using the synthesised-lret protected call,
    and extensions reach exported core kernel services through DPL 1
    call gates (with explicit pointer swizzling). *)

type kmodule = {
  m_name : string;
  m_text_off : int;
  m_symbols : (string, int) Hashtbl.t;  (** symbol -> segment offset *)
  m_exports : string list;
  m_bounds : Vcost.bounds option;
      (** certified resource bounds from load-time verification; [None]
          when the image was admitted without analysis (verify and
          budget policies both off) *)
}

type invoke_error =
  | No_such_service
  | Segment_dead  (** a previous fault/timeout aborted this segment *)
  | Aborted_fault of X86.Fault.t
  | Aborted_timeout of Watchdog.expiry
  | Aborted_runaway

type t

val create : Kernel.t -> size:int -> t
(** Allocate a page-aligned extension segment inside the kernel window,
    install its DPL 1 descriptors, its stack and the return gate. *)

val kernel : t -> Kernel.t

val seg_base : t -> int

val seg_size : t -> int

val is_dead : t -> bool

val aborts : t -> int

val invocations : t -> int

val eft : t -> (string * int) list
(** The Extension Function Table: ["module$function"] -> KPrepare
    offset. *)

val modules : t -> kmodule list

(** {2 Pointer swizzling} *)

val to_segment_offset : t -> int -> int

val to_linear : t -> int -> int

(** {2 Loading and invoking} *)

val insmod : ?require_termination:bool -> t -> Image.t -> kmodule
(** Load a module into the segment: place text+data at segment offsets,
    generate per-export Transfer stubs (in-segment) and KPrepare stubs
    (kernel text), and register the exports in the EFT.  Detects the
    well-known shared-area symbol.

    The image text first passes the admission gate, [Verify.admit],
    under the world's [Kernel.policy] (each unset field follows the
    process default): under a [Reject] verify policy an unsafe image
    raises [Verify.Rejected].  [require_termination] (default false)
    additionally rejects any CFG back edge — used for BPF-derived
    packet filters, which must provably terminate.

    Under an active budget policy the report's certified bounds are
    additionally checked against the world's cycle budget
    ([Kernel.budget_cycles]): an unbounded or over-budget WCET warns or
    raises [Vcost.Over_budget]. *)

val module_symbol : kmodule -> string -> int option

val invoke :
  ?task:Task.t -> t -> name:string -> arg:int ->
  ((int * int) option, invoke_error) result
(** Synchronous protected invocation (Figure 4 steps 4-5-9).
    [Ok None] when the service is not instantiated (the paper's
    "no action is taken"); on a fault or timeout the segment is
    aborted and its resources reclaimed. *)

val abort : t -> unit
(** Mark the segment dead and reclaim its descriptors. *)

(** {2 Asynchronous extensions} *)

val post_async : t -> name:string -> arg:int -> unit
(** Queue a request and mark the module busy (section 4.3). *)

val pending : t -> int

val is_busy : t -> bool

val schedule :
  ?task:Task.t -> t ->
  (string * ((int * int) option, invoke_error) result) list
(** Run every queued request to completion, in order. *)

(** {2 Shared data area} *)

val shared_linear : t -> int option

val write_shared : t -> off:int -> Bytes.t -> unit

val read_shared : t -> off:int -> int -> Bytes.t

(** {2 Core kernel services} *)

val expose_service : t -> name:string -> handler:(args_linear:int -> int) -> int
(** Expose a kernel service behind a DPL 1 call gate (Figure 4 steps
    6-7-8); the gate stub swizzles the extension stack pointer so
    [handler] receives a linear address of the argument words.
    Returns the encoded gate selector. *)

val service_selector : t -> string -> int option

val pp_invoke_error : invoke_error Fmt.t
