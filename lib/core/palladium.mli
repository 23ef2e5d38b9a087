(** Facade over the Palladium reproduction: boot a simulated machine
    with the Palladium-modified kernel, then create extensible
    applications ({!Pbackend}, the user-level mechanism of paper
    section 4.4) and kernel extension segments ({!Kernel_ext}, the
    kernel-level mechanism of section 4.3).

    Related entry points: {!Stub_gen} (the Figure 6 control-transfer
    sequences), {!Guard} (the protected-memory service), {!Kmod} (the
    unprotected insmod baseline) and {!Ulib} (ready-made extension
    images). *)

val version : string

type world = { kernel : Kernel.t; backend : Pbackend.kind }
(** [backend] is fixed at boot. *)

val boot :
  ?params:Cycles.params ->
  ?verify_policy:Verify.policy ->
  ?audit_policy:Audit.Engine.policy ->
  ?budget_policy:Vcost.policy ->
  ?budget_cycles:int ->
  ?backend:Pbackend.kind ->
  unit ->
  world
(** Boot the machine: physical memory, GDT/IDT, the int-0x80 syscall
    gate, the Palladium fault policy and the three new system calls.
    [?verify_policy]/[?audit_policy]/[?budget_policy]/[?budget_cycles]
    fill this world's {!Kernel.policy}; each one left out follows its
    process default, read when used, so a default changed after boot
    still applies ({!Pconfig.set_verify_policy},
    {!Pconfig.set_audit_policy}, {!Pconfig.set_budget_policy}).
    [?budget_cycles] is the cycle budget the loaders compare static
    WCETs against and the watchdog fuel clamp (default
    {!Pconfig.default_time_limit_cycles}); a value below 1 raises
    [Invalid_argument].  [?backend] fixes this world's protection
    backend ({!Pbackend.kind}); without it the world takes the process
    default ([PALLADIUM_BACKEND] or {!Pbackend.set_default}) as it
    stands at boot. *)

val teardown : world -> unit
(** Drop per-kernel state registered by upper layers (the auditor's
    segment registry and generation cache).  Optional — a dropped
    world is collected whole — but long-lived fleet processes booting
    many transient worlds can reclaim eagerly. *)

val kernel : world -> Kernel.t

val cpu : world -> Cpu.t

val create_app : world -> name:string -> Pbackend.app
(** An extensible application under the segmentation backend, already
    promoted to SPL 2 and ready to load extensions. *)

val backend : world -> Pbackend.kind
(** The world's protection backend, fixed at boot. *)

val create_backend_app :
  ?backend:Pbackend.kind -> world -> name:string -> Pbackend.app
(** A backend-generic extensible application under the world's
    backend (or an explicit [?backend]). *)

val create_plain_process : world -> name:string -> Task.t * Runtime.t
(** An ordinary (non-Palladium) SPL 3 process. *)

val create_kernel_segment : ?size:int -> world -> Kernel_ext.t
(** A kernel extension segment at SPL 1 (default
    {!Pconfig.kernel_ext_segment_bytes}). *)
