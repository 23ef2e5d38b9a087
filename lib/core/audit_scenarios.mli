(** Shared auditing scenarios for the CLI, tests and benchmarks:
    clean worlds the auditor must bless and an injected-
    misconfiguration catalogue in which every entry violates exactly
    one invariant (or plants a rogue gate for the reachability cut). *)

type world = {
  w : Palladium.world;
  kernel : Kernel.t;
  app : Pbackend.app;
  ext : Pbackend.ext;
  kseg : Kernel_ext.t;
}

val build : unit -> world
(** Boot, promote an application (guard window, service, loaded
    extension) and load a kernel extension segment (exposed service,
    loaded module) — every descriptor species the catalogue covers. *)

val clean_scenarios : (string * (unit -> Kernel.t)) list
(** [boot], [app], [kernelext], [full] — all must audit clean. *)

val audit_world : world -> Audit.Engine.report
(** Policy-free audit of the world's current state (no generation
    cache, so it sees even mutations the fingerprint cannot). *)

type misconfig = {
  mc_name : string;
  mc_id : string;  (** the one invariant this violates *)
  mc_doc : string;
  mc_apply : world -> unit;
}

val misconfigs : misconfig list

val find_misconfig : string -> misconfig option
