(** The kernel: boots the simulated machine, owns the GDT/IDT, creates
    tasks, dispatches int-0x80 system calls, services faults with the
    Palladium policy and implements the paper's new system calls
    (init_PL, set_range, set_call_gate) plus the section 4.5.2 kernel
    modifications. *)

exception Panic of string

type t

val boot : ?params:Cycles.params -> unit -> t

(** {2 Accessors} *)

val id : t -> int
(** Unique id of this kernel instance (process-wide, domain-safe). *)

(** {2 Per-world policy}

    One world's load-time verification, audit and budget-admission
    policies and its cycle budget.  [None] means "the layer's process
    default", resolved at read time ([Verify.effective_policy],
    [Vcost.effective_policy], [Audit.Engine.effective_policy]), so a
    world without an override follows a default changed after boot.
    The fields stay settable after boot. *)

type policy = {
  mutable verify : Ppolicy.t option;
  mutable audit : Ppolicy.t option;
  mutable budget : Ppolicy.t option;
  mutable budget_cycles : int option;
      (** must be >= 1 when set; [Palladium.boot] checks *)
}

val policy : t -> policy

val budget_cycles : t -> int
(** The world's cycle budget: [budget_cycles] when set, else
    {!Watchdog.default_limit_cycles}. *)

(** {2 Extension-state slots}

    Layers above kern hang per-kernel state here (e.g. the
    protection-state auditor's segment catalogue) instead of keeping a
    process-global registry keyed by {!id} — the state then dies with
    the kernel rather than leaking across long fleet runs.  Extend
    {!ext_state} with a private constructor and pick a unique slot
    name. *)

type ext_state = ..

val set_ext_state : t -> string -> ext_state -> unit

val ext_state : t -> string -> ext_state option

val clear_ext_state : t -> string -> unit

val cpu : t -> Cpu.t

val bexec : t -> Bexec.t
(** The basic-block engine attached to this kernel's CPU (loaders use
    it to pre-translate verified extension text). *)

val gdt : t -> X86.Desc_table.t

val idt : t -> X86.Desc_table.t

val tasks : t -> Task.t list
(** All tasks ever created, newest first (read-only snapshot use). *)

val boot_directory : t -> X86.Paging.dir

val code : t -> Code_mem.t

val phys : t -> X86.Phys_mem.t

val console_contents : t -> string

val console_write : t -> string -> unit

val watchdog : t -> Watchdog.t

val kernel_code_selector : t -> X86.Selector.t

val kernel_data_selector : t -> X86.Selector.t

val user_code_selector : t -> X86.Selector.t

val user_data_selector : t -> X86.Selector.t

val segv_log : t -> (int * Signal.info) list
(** (pid, info) of the newest {!Signal.log_capacity} SIGSEGVs
    delivered, oldest first; the [kern.sigsegv] counter counts all. *)

val current : t -> Task.t option

val current_exn : t -> Task.t

val find_task : t -> int -> Task.t option

val syscall_entry_offset : t -> int

val invoke_entry_offset : t -> int

(** {2 Kernel memory} *)

val kalloc : t -> bytes:int -> int
(** Allocate backed kernel-core memory, mapped supervisor in every
    address space; returns the linear address.  Raises {!Panic} if the
    core break would run into the extension region. *)

val kalloc_ext : t -> bytes:int -> int
(** Like {!kalloc}, but carving from the kernel-extension region
    ([Layout.kernel_ext_base .. +kernel_ext_region_size]) that
    extension segments must lie inside.  Raises {!Panic} when the
    region is exhausted. *)

val kernel_break : t -> int
(** Next free kernel-core linear address. *)

val kernel_ext_break : t -> int
(** Next free kernel-extension linear address. *)

val koffset : int -> int
(** Kernel-segment offset of a kernel linear address. *)

val klinear : int -> int

val kstore_program : t -> linear:int -> Instr.t array -> unit

val kphys : t -> int -> int

val kpoke_u32 : t -> int -> int -> unit

val kpeek_u32 : t -> int -> int

val kpoke_bytes : t -> int -> Bytes.t -> unit

val kpeek_bytes : t -> int -> int -> Bytes.t

(** {2 Tasks} *)

val create_task : t -> name:string -> Task.t

val fork_task : t -> Task.t -> Task.t
(** fork: privilege levels and the memory map (with PPLs) are
    inherited; the LDT content is copied. *)

val exec_task : t -> Task.t -> unit
(** exec: fresh address space and LDT; taskSPL resets to 3. *)

val sys_fork : t -> Syscall.context -> int

val sys_exec : t -> Syscall.context -> int

val reg_syscall : t -> number:int -> name:string -> Syscall.fn -> unit

(** {2 Running code} *)

val view_for : t -> Task.t -> X86.Desc_table.view

val switch_to : t -> Task.t -> unit
(** Make [task] current; re-entering the current task does not reload
    CR3 (no TLB flush). *)

val enter_user : t -> Task.t -> eip:int -> esp:int -> unit
(** Place the CPU in user mode using the task's current user segments
    (DPL 3 before promotion, the DPL 2 LDT segments after). *)

val enter_kernel : t -> Task.t -> entry_offset:int -> unit
(** Run kernel code at CPL 0 on the task's kernel stack. *)

type run_result =
  | Completed
  | Faulted of X86.Fault.t
  | Timed_out of Watchdog.expiry
  | Out_of_fuel

val run : t -> ?max_instrs:int -> unit -> run_result

val kernel_invoke :
  t -> Task.t -> fn_offset:int -> arg:int -> run_result * int * int
(** Call the kernel function at [fn_offset] with [arg] through the
    invoke trampoline; returns (outcome, EAX, cycles). *)

(** {2 User program loading helpers} *)

val map_user_text : t -> Task.t -> Asm.assembled -> unit

val map_user_stack : t -> Task.t -> pages:int -> int
(** Returns the initial ESP. *)

val map_user_data : t -> Task.t -> addr:int -> len:int -> label:string -> Vm_area.t
