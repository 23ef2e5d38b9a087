(* Palladium configuration constants. *)

(* Well-known symbol of the shared data area inside an extension
   segment; the kernel "checks for existence at run time"
   (section 4.3). *)
let shared_area_symbol = "__palladium_shared"

(* Default per-invocation CPU budget for extensions, a system
   parameter set by the administrator (section 4.5.2). *)
let default_time_limit_cycles = Watchdog.default_limit_cycles

(* Extension stacks: one per extension segment (section 4.3). *)
let ext_stack_pages = 4

(* Size of the stub region holding generated Prepare/Transfer routines
   for one application. *)
let stub_region_pages = 4

(* Default kernel extension segment size. *)
let kernel_ext_segment_bytes = 256 * 1024

(* Default shared-area size inside kernel extension segments. *)
let kernel_shared_area_bytes = 8192

(* Load-time verification policy applied by the loaders
   (Kernel_ext.insmod / Kmod.insmod / Dyld.dlopen with
   extension-segment placement): [Off], [Warn] (default; verdicts on
   stderr and in the verify.* counters) or [Reject] (unsafe images
   raise [Verify.Rejected]).  This sets the *process default* (atomic,
   domain-safe); a single world overrides it with the [verify] field
   of its [Kernel.policy].  See lib/verify and DESIGN.md. *)
let set_verify_policy = Verify.set_policy

(* Protection-state audit policy applied after every protection-
   mutating operation (boot, app creation, insmod, promotion): [Off],
   [Warn] (default; findings on stderr and in the audit.* counters) or
   [Reject] (findings raise [Audit.Engine.Rejected]).  See lib/audit
   and DESIGN.md section 6. *)
let audit_policy () = Audit.Engine.policy ()

let set_audit_policy = Audit.Engine.set_policy

(* Resource-budget admission policy applied by the same loaders on the
   certified bounds the verifier computes (Vcost): [Off] (default —
   bounds are reported but never gate), [Warn] (over-budget or
   unbounded images noted on stderr and in the budget.* counters) or
   [Reject] (they raise [Vcost.Over_budget]).  The cycle budget itself
   defaults to the watchdog limit ([Kernel.budget_cycles]); a world
   overrides both with the [budget] and [budget_cycles] fields of its
   [Kernel.policy]. *)
let set_budget_policy = Vcost.set_policy

(* All three layers parse the same Off/Warn/Reject strings through the
   shared Ppolicy helper; the per-layer aliases are kept for callers
   that want the layer's own (re-exported) policy type. *)
let verify_policy_of_string = Verify.policy_of_string

let audit_policy_of_string = Audit.Engine.policy_of_string

let budget_policy_of_string = Vcost.policy_of_string

(* The process defaults can be seeded from the environment, so CI and
   ad-hoc runs can flip them without touching call sites:
   PALLADIUM_VERIFY / PALLADIUM_AUDIT / PALLADIUM_BUDGET =
   off|warn|reject.  (PALLADIUM_BACKEND is seeded the same way by
   Pbackend.) *)
let () =
  let seed var parse set =
    Ppolicy.seed_env var ~parse ~expected:"off|warn|reject" ~set
  in
  seed "PALLADIUM_VERIFY" verify_policy_of_string set_verify_policy;
  seed "PALLADIUM_AUDIT" audit_policy_of_string set_audit_policy;
  seed "PALLADIUM_BUDGET" budget_policy_of_string set_budget_policy
