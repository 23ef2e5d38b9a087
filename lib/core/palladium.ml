(* Facade tying the Palladium pieces together: boot a simulated
   machine with the Palladium-modified kernel, then create extensible
   applications (user-level mechanism) and kernel extension segments
   (kernel-level mechanism).

   See {!Pbackend} and {!Kernel_ext} for the two mechanisms,
   {!Stub_gen} for the Figure 6 control-transfer sequences, {!Guard}
   for the protected-memory service, and {!Ulib} for ready-made
   extension images. *)

let version = "0.9.0"

type world = { kernel : Kernel.t; backend : Pbackend.kind }

let boot ?params ?verify_policy ?audit_policy ?budget_policy ?budget_cycles
    ?backend () =
  (match budget_cycles with
  | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Palladium.boot: budget_cycles %d < 1" n)
  | _ -> ());
  let kernel = Kernel.boot ?params () in
  (* The world's policy goes on the kernel before the first audit, so
     even the boot audit runs under it. *)
  let p = Kernel.policy kernel in
  p.verify <- verify_policy;
  p.audit <- audit_policy;
  p.budget <- budget_policy;
  p.budget_cycles <- budget_cycles;
  let backend = match backend with Some b -> b | None -> Pbackend.default () in
  let w = { kernel; backend } in
  Paudit.maybe_audit ~context:"boot" w.kernel;
  w

(* Explicit world teardown: drop the per-kernel state upper layers
   hung on the kernel (today: the auditor's registry and generation
   cache).  Optional — the state dies with the kernel anyway — but
   long-lived fleet processes that boot many transient worlds can
   reclaim eagerly. *)
let teardown w = Paudit.forget w.kernel

let kernel w = w.kernel

let cpu w = Kernel.cpu w.kernel

(* An extensible application, promoted to SPL 2 and ready to load
   SPL 3 extensions. *)
let create_app w ~name =
  Pbackend.create ~backend:Pbackend.Segmentation w.kernel ~name

(* The world's protection backend, fixed at boot, and a backend-generic
   application under it (segmentation or protection keys). *)
let backend w = w.backend

let create_backend_app ?backend w ~name =
  Pbackend.create ~backend:(Option.value backend ~default:w.backend) w.kernel
    ~name

(* A plain (non-Palladium) process at SPL 3. *)
let create_plain_process w ~name =
  let task = Kernel.create_task w.kernel ~name in
  let rt = Runtime.install w.kernel task in
  (task, rt)

(* A kernel extension segment at SPL 1. *)
let create_kernel_segment ?(size = Pconfig.kernel_ext_segment_bytes) w =
  let seg = Kernel_ext.create w.kernel ~size in
  Paudit.maybe_audit ~context:"create_kernel_segment" w.kernel;
  seg
