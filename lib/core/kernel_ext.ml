(* The kernel-level extension mechanism (section 4.3): extension
   modules are loaded into a dedicated *extension segment* — a
   sub-range of the 3-4 GByte kernel address space with its own DPL 1
   code and data descriptors.  The kernel can touch everything; the
   extension is confined by the segment limit and SPL checks.  Modules
   sharing a segment share one stack and can share data freely; the
   kernel invokes extension services through the Extension Function
   Table, and extensions reach exported core kernel services through
   DPL 1 call gates (with pointer swizzling, which is acceptable at
   kernel level). *)

module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module P = X86.Privilege

type kmodule = {
  m_name : string;
  m_text_off : int; (* segment offset of the module text *)
  m_symbols : (string, int) Hashtbl.t; (* symbol -> segment offset *)
  m_exports : string list;
  m_bounds : Vcost.bounds option;
      (* certified resource bounds from load-time verification; [None]
         when the image was admitted without analysis (both the verify
         and budget policies off) *)
}

type invoke_error =
  | No_such_service (* not instantiated: "no action is taken" *)
  | Segment_dead (* a previous fault/timeout aborted this segment *)
  | Aborted_fault of X86.Fault.t
  | Aborted_timeout of Watchdog.expiry
  | Aborted_runaway

type t = {
  kernel : Kernel.t;
  seg_base : int; (* linear *)
  seg_size : int;
  cs_sel : Sel.t; (* DPL 1 code, base seg_base *)
  ds_sel : Sel.t; (* DPL 1 data, base seg_base *)
  gdt_cs_idx : int;
  gdt_ds_idx : int;
  gdt_gate_idx : int;
  stack_top_off : int;
  arg_slot_off : int;
  mutable cursor_off : int; (* bump allocator for module text+data *)
  ksp0_off : int; (* kernel-segment offsets of the saved SP/BP slots *)
  kbp0_off : int;
  kgate_sel : int; (* encoded selector of the return gate into the kernel *)
  kinvoke_off : int; (* kernel trampoline: call a Prepare pointer *)
  mutable kstub_cursor : int; (* kernel linear cursor for KPrepare stubs *)
  kstub_end : int;
  mutable modules : kmodule list;
  mutable eft : (string * int) list; (* Extension Function Table *)
  mutable ksvcs : (string * int) list; (* kernel services: name -> selector *)
  mutable shared_off : int option;
  mutable busy : bool;
  queue : (string * int) Queue.t;
  mutable dead : bool;
  mutable aborts : int;
  mutable invocations : int;
      (* per module, several per kernel: no sink counter splits them *)
}

let page_size = X86.Phys_mem.page_size

(* Stack pages reserved at the top of the extension segment. *)
let stack_reserve = Pconfig.ext_stack_pages * page_size

let kernel t = t.kernel

let seg_base t = t.seg_base

let seg_size t = t.seg_size

let is_dead t = t.dead

let aborts t = t.aborts

let invocations t = t.invocations

let eft t = t.eft

let modules t = t.modules

(* Pointer swizzling helpers (section 4.4.1 motivates why user level
   avoids them; at kernel level they are explicit and cheap). *)
let to_segment_offset t linear = linear - t.seg_base

let to_linear t offset = t.seg_base + offset

(* Offset delta converting an extension-segment offset into a
   kernel-segment offset for the same linear address. *)
let kernel_delta t = t.seg_base - X86.Layout.kernel_base

let create kernel ~size =
  if size land X86.Phys_mem.page_mask <> 0 then
    invalid_arg "Kernel_ext.create: size must be page aligned";
  (* Extension segments are carved from the dedicated region above the
     kernel core (INV-04): kalloc_ext, never kalloc. *)
  let seg_base = Kernel.kalloc_ext kernel ~bytes:size in
  let gdt = Kernel.gdt kernel in
  let gdt_cs_idx =
    DT.alloc gdt (Desc.code ~base:seg_base ~limit:(size - 1) ~dpl:P.R1 ())
  in
  let gdt_ds_idx =
    DT.alloc gdt (Desc.data ~base:seg_base ~limit:(size - 1) ~dpl:P.R1 ())
  in
  let cs_sel = Sel.make ~rpl:P.R1 gdt_cs_idx in
  let ds_sel = Sel.make ~rpl:P.R1 gdt_ds_idx in
  (* Kernel-side support: saved SP/BP slots, the return-gate stub and
     a region for KPrepare stubs and the invoke trampoline. *)
  let slots = Kernel.kalloc kernel ~bytes:page_size in
  let ksp0_off = Kernel.koffset slots in
  let kbp0_off = ksp0_off + 4 in
  let kstub = Kernel.kalloc kernel ~bytes:(4 * page_size) in
  let kgate_label = "kgate" in
  let gate_prog =
    Stub_gen.app_call_gate
      ~reload_ds:(Sel.encode (Kernel.kernel_data_selector kernel))
      ~label:kgate_label ~mark_prefix:"kern" ~sp2_slot:ksp0_off
      ~bp2_slot:kbp0_off ()
  in
  let invoke_prog =
    [
      Asm.L "kinvoke1";
      Asm.I (Instr.Push (Operand.Reg Reg.EBX));
      Asm.I (Instr.Call_ind (Operand.Reg Reg.EAX));
      Asm.I (Instr.Mark "rt.done");
      Asm.I (Instr.Alu (Instr.Add, Operand.Reg Reg.ESP, Operand.Imm 4));
      Asm.I Instr.Hlt;
    ]
  in
  let asm = Asm.assemble ~org:(Kernel.koffset kstub) (gate_prog @ invoke_prog) in
  Code_mem.store_program (Kernel.code kernel)
    ~addr:(Kernel.klinear asm.Asm.org) asm.Asm.instrs;
  let kgate_entry = Asm.symbol asm kgate_label in
  let kinvoke_off = Asm.symbol asm "kinvoke1" in
  let gdt_gate_idx =
    DT.alloc gdt
      (Desc.call_gate ~dpl:P.R1
         ~target:(Kernel.kernel_code_selector kernel)
         ~entry:kgate_entry ())
  in
  (* Hand the auditor its ground truth: the segment's slots and range,
     plus the return gate as the first sanctioned DPL 1 gate. *)
  Paudit.register_segment kernel
    ~name:(Printf.sprintf "extseg%d" gdt_cs_idx)
    ~cs:gdt_cs_idx ~ds:gdt_ds_idx ~base:seg_base ~size;
  Paudit.add_segment_gate kernel ~cs:gdt_cs_idx ~slot:gdt_gate_idx
    ~entry:kgate_entry;
  {
    kernel;
    seg_base;
    seg_size = size;
    cs_sel;
    ds_sel;
    gdt_cs_idx;
    gdt_ds_idx;
    gdt_gate_idx;
    stack_top_off = size;
    arg_slot_off = size - 4;
    cursor_off = 0;
    ksp0_off;
    kbp0_off;
    kgate_sel = Sel.encode (Sel.make ~rpl:P.R1 gdt_gate_idx);
    kinvoke_off;
    kstub_cursor = kstub + asm.Asm.text_size;
    kstub_end = kstub + (4 * page_size);
    modules = [];
    eft = [];
    ksvcs = [];
    shared_off = None;
    busy = false;
    queue = Queue.create ();
    dead = false;
    aborts = 0;
    invocations = 0;
  }

(* Emit a program into the kernel stub region; returns the assembled
   form (symbols are kernel-segment offsets). *)
let emit_kernel_stub t program =
  let asm = Asm.assemble ~org:(Kernel.koffset t.kstub_cursor) program in
  if t.kstub_cursor + asm.Asm.text_size > t.kstub_end then
    invalid_arg "Kernel_ext: kernel stub region exhausted";
  Code_mem.store_program (Kernel.code t.kernel) ~addr:t.kstub_cursor
    asm.Asm.instrs;
  t.kstub_cursor <- t.kstub_cursor + asm.Asm.text_size;
  asm

(* insmod: load a module image into the extension segment.  Extension
   code is assembled against segment offsets (its CS/DS are based at
   the segment), so no relocation surprises; imported kernel-service
   selectors resolve through [ksvc$name] symbols.

   Before anything is allocated or emitted, the raw image text goes
   through the load-time verifier (the owning world's effective
   verify policy): only the
   author's code is analysed — the Transfer stubs appended below are
   loader-generated and legitimately privileged.  [require_termination]
   additionally demands an acyclic CFG (BPF-derived filters). *)
let insmod ?(require_termination = false) t (image : Image.t) =
  if t.dead then invalid_arg "Kernel_ext.insmod: segment is dead";
  (* Admission control, certified bounds included: an unsafe image or
     an unbounded or over-budget WCET is rejected (or warned about)
     before the image gets a byte of segment space. *)
  let report =
    let p = Kernel.policy t.kernel in
    Verify.admit ~policy:p.verify ~budget:p.budget
      ~budget_cycles:(Kernel.budget_cycles t.kernel) ~mechanism:"insmod(ext)"
      (fun () ->
        let own = Image.externs image in
        let externs name =
          own name
          || List.mem_assoc name t.ksvcs
          || List.exists (fun m -> Hashtbl.mem m.m_symbols name) t.modules
        in
        let allowed_far sel =
          sel = t.kgate_sel || List.exists (fun (_, s) -> s = sel) t.ksvcs
        in
        Verify.verify ~org:t.cursor_off ~entries:image.Image.exports ~externs
          ~region:(0, t.seg_size) ~allowed_far ~require_termination
          ~cost_params:(Cpu.params (Kernel.cpu t.kernel))
          ~name:image.Image.name image.Image.text)
  in
  let bounds = Option.map (fun r -> r.Verify.r_bounds) report in
  (* A clean verdict with a static far-target set feeds the
     reachability audit: the segment's outgoing gate edges shrink to
     exactly the selectors the module can name, plus the return gate
     the Transfer stubs below always lcall. *)
  let far_targets =
    match report with
    | Some r when Verify.ok r ->
        Option.map (fun sels -> t.kgate_sel :: sels) r.Verify.r_far_targets
    | _ -> None
  in
  let text_off = t.cursor_off in
  let text_size =
    Asm.length_bytes image.Image.text + (4 * Instr.size * List.length image.Image.exports)
  in
  let data_off = (text_off + text_size + 15) land lnot 15 in
  let data_size = max (Image.data_bytes image) 4 in
  let total_end = data_off + data_size in
  if total_end > t.seg_size - stack_reserve then
    invalid_arg "Kernel_ext.insmod: extension segment full";
  t.cursor_off <- (total_end + 15) land lnot 15;
  (* Data layout and initial bytes. *)
  let symbols = Hashtbl.create 32 in
  let data_syms = Image.layout_data image ~base:data_off in
  List.iter
    (fun (name, off, init) ->
      Hashtbl.replace symbols name off;
      match init with
      | Some bytes -> Kernel.kpoke_bytes t.kernel (to_linear t off) bytes
      | None -> ())
    data_syms;
  (* Per-export Transfer stubs appended to the module text inside the
     segment, assembled together with it so function addresses resolve
     as labels. *)
  (* The Transfer stub loads the extension's own DS first: the
     privilege-lowering lret nulled the kernel DS, and flat-compiled
     module code expects DS to cover its segment. *)
  let transfer_prog =
    List.concat_map
      (fun fn ->
        [
          Asm.L ("transfer$" ^ image.Image.name ^ "$" ^ fn);
          Asm.I (Instr.Mov_to_sreg (Reg.DS, Operand.Imm (Sel.encode t.ds_sel)));
          Asm.I (Instr.Call (Instr.Label fn));
          Asm.I (Instr.Mark (image.Image.name ^ "$" ^ fn ^ ".return"));
          Asm.I (Instr.Lcall t.kgate_sel);
        ])
      image.Image.exports
  in
  let extern name =
    match Hashtbl.find_opt symbols name with
    | Some off -> Some off
    | None -> (
        match List.assoc_opt name t.ksvcs with
        | Some sel -> Some sel
        | None ->
            (* cross-module symbol *)
            List.find_map
              (fun m -> Hashtbl.find_opt m.m_symbols name)
              t.modules)
  in
  let asm =
    Asm.assemble ~org:text_off ~extern (image.Image.text @ transfer_prog)
  in
  Code_mem.store_program (Kernel.code t.kernel) ~addr:(to_linear t text_off)
    asm.Asm.instrs;
  List.iter (fun (n, off) -> Hashtbl.replace symbols n off) asm.Asm.symbols;
  (* Shared data area: well-known symbol, checked at run time. *)
  (match Hashtbl.find_opt symbols Pconfig.shared_area_symbol with
  | Some off -> t.shared_off <- Some off
  | None -> ());
  (* KPrepare stubs in kernel text + Extension Function Table entries. *)
  List.iter
    (fun fn ->
      let name = image.Image.name ^ "$" ^ fn in
      let transfer_off = Hashtbl.find symbols ("transfer$" ^ name) in
      let spec =
        {
          Stub_gen.fn_name = name;
          fn_addr = Hashtbl.find symbols fn;
          ext_cs = Sel.encode t.cs_sel;
          ext_ss = Sel.encode t.ds_sel;
          ext_stack_ptr = t.arg_slot_off;
          sp2_slot = t.ksp0_off;
          bp2_slot = t.kbp0_off;
          return_gate = t.kgate_sel;
        }
      in
      let arg_slot_addr = t.arg_slot_off + kernel_delta t in
      let kasm =
        emit_kernel_stub t
          (Stub_gen.kernel_prepare spec ~arg_slot_addr
             ~transfer_addr:transfer_off)
      in
      let prepare_off = Asm.symbol kasm (Stub_gen.prepare_label spec) in
      t.eft <- (name, prepare_off) :: t.eft)
    image.Image.exports;
  let m =
    {
      m_name = image.Image.name;
      m_text_off = text_off;
      m_symbols = symbols;
      m_exports = image.Image.exports;
      m_bounds = bounds;
    }
  in
  t.modules <- m :: t.modules;
  Paudit.note_far_targets t.kernel ~cs:t.gdt_cs_idx far_targets;
  (* Warm the basic-block engine: pre-translate the module's text at
     its CFG block leaders under the exact CS signature the extension
     runs with (the lret into the segment stamps CPL 1 into the
     selector RPL).  Counter-free, and a no-op under the interpreter;
     a CFG that fails to build just skips the warm start. *)
  (match Vcfg.build ~org:text_off ~externs:(fun _ -> true) image.Image.text with
  | cfg ->
      let view = DT.view (Kernel.gdt t.kernel) in
      let cs_loaded =
        {
          X86.Segmentation.selector = Sel.with_rpl t.cs_sel P.R1;
          cache = DT.resolve view t.cs_sel;
        }
      in
      Bexec.pretranslate (Kernel.bexec t.kernel) ~cs:cs_loaded
        (Vcfg.block_offsets cfg)
  | exception _ -> ());
  Paudit.maybe_audit ~context:("insmod " ^ image.Image.name) t.kernel;
  m

let module_symbol m name = Hashtbl.find_opt m.m_symbols name

(* Abort the segment: reclaim descriptors and forget its services
   (section 4.5.2: no further clean-up is attempted). *)
let abort t =
  t.dead <- true;
  t.aborts <- t.aborts + 1;
  t.eft <- [];
  Queue.clear t.queue;
  (* Drop the segment's instructions: a later segment reusing this
     linear range must never fetch the aborted image's stale text
     (and the block cache invalidates with the code store). *)
  if t.cursor_off > 0 then
    Code_mem.remove_range (Kernel.code t.kernel) ~addr:t.seg_base
      ~len:t.cursor_off;
  let gdt = Kernel.gdt t.kernel in
  DT.clear gdt t.gdt_cs_idx;
  DT.clear gdt t.gdt_ds_idx;
  DT.clear gdt t.gdt_gate_idx;
  (* The auditor must stop expecting this segment's descriptors. *)
  Paudit.mark_segment_dead t.kernel ~cs:t.gdt_cs_idx;
  List.iter (fun (_, sel) -> DT.clear gdt (Sel.index (Sel.decode sel))) t.ksvcs;
  t.ksvcs <- []

(* Allowance for the cycles one invocation spends outside the verified
   module text — KPrepare stub, far gate transits, the Transfer stub
   and the return gate — which the static WCET does not cover.
   Generous: the stub path is a few dozen instructions. *)
let invoke_overhead_cycles = 1024

(* Watchdog fuel for one invocation of [name].  With the budget policy
   off this is the flat administrative limit, unchanged.  Under an
   active budget policy the fuel is seeded from the module's certified
   bounds when they are finite — static WCET, plus the worst-case TLB
   walk surcharge the instruction bound admits, plus the stub
   allowance — and clamped to the world's cycle budget either way, so
   an unbounded module admitted under [Warn] still dies at the budget
   rather than at the flat default. *)
let fuel_limit t ~name =
  match Vcost.effective_policy (Kernel.policy t.kernel).budget with
  | Vcost.Off -> Pconfig.default_time_limit_cycles
  | Vcost.Warn | Vcost.Reject -> (
      let budget = Kernel.budget_cycles t.kernel in
      let owner =
        List.find_opt
          (fun m -> List.exists (fun fn -> m.m_name ^ "$" ^ fn = name) m.m_exports)
          t.modules
      in
      match owner with
      | Some { m_bounds = Some b; _ } -> (
          match (b.Vcost.b_wcet_cycles, b.Vcost.b_max_instrs) with
          | Vcost.Finite w, Vcost.Finite n ->
              let params = Cpu.params (Kernel.cpu t.kernel) in
              min budget
                (w + Vcost.walk_surcharge params ~instrs:n + invoke_overhead_cycles)
          | _ -> min budget Pconfig.default_time_limit_cycles)
      | _ -> min budget Pconfig.default_time_limit_cycles)

(* Synchronous protected invocation of an extension function by the
   kernel (Figure 4, steps 4-5-9). *)
let invoke ?task t ~name ~arg =
  if t.dead then Error Segment_dead
  else
    match List.assoc_opt name t.eft with
    | None -> Ok None (* "no action is taken" *)
    | Some prepare_off -> (
        t.invocations <- t.invocations + 1;
        let kernel = t.kernel in
        let cpu = Kernel.cpu kernel in
        let task =
          match task with
          | Some task -> task
          | None -> (
              match Kernel.current kernel with
              | Some task -> task
              | None -> invalid_arg "Kernel_ext.invoke: no current task")
        in
        let saved = Cpu.save_state cpu in
        let wd = Kernel.watchdog kernel in
        Watchdog.arm wd ~now:(Cpu.cycles cpu) ~limit:(fuel_limit t ~name) ();
        Cpu.reset_tick cpu (* fresh invocation, fresh timer period *);
        let result, value, cycles =
          Kernel.kernel_invoke kernel task ~fn_offset:prepare_off ~arg
        in
        Watchdog.disarm wd;
        match result with
        | Kernel.Completed -> Ok (Some (value, cycles))
        | Kernel.Faulted f ->
            Cpu.restore_state cpu saved;
            abort t;
            Error (Aborted_fault f)
        | Kernel.Timed_out e ->
            Cpu.restore_state cpu saved;
            abort t;
            Error (Aborted_timeout e)
        | Kernel.Out_of_fuel ->
            Cpu.restore_state cpu saved;
            abort t;
            Error Aborted_runaway)

(* Asynchronous extensions (section 4.3): the kernel queues a request,
   marks the module busy and returns; queued requests run to
   completion when the extension is next scheduled. *)
let post_async t ~name ~arg =
  Queue.add (name, arg) t.queue;
  t.busy <- true

let pending t = Queue.length t.queue

let is_busy t = t.busy

let schedule ?task t =
  let results = ref [] in
  (try
     while not (Queue.is_empty t.queue) do
       let name, arg = Queue.pop t.queue in
       results := (name, invoke ?task t ~name ~arg) :: !results
     done
   with e ->
     t.busy <- not (Queue.is_empty t.queue);
     raise e);
  t.busy <- false;
  List.rev !results

(* Shared data area access (kernel side). *)
let shared_linear t =
  Option.map (fun off -> to_linear t off) t.shared_off

let write_shared t ~off bytes =
  match t.shared_off with
  | None -> invalid_arg "Kernel_ext.write_shared: no shared area"
  | Some base -> Kernel.kpoke_bytes t.kernel (to_linear t (base + off)) bytes

let read_shared t ~off len =
  match t.shared_off with
  | None -> invalid_arg "Kernel_ext.read_shared: no shared area"
  | Some base -> Kernel.kpeek_bytes t.kernel (to_linear t (base + off)) len

(* Expose a core kernel service to extensions: a DPL 1 call gate into
   a kernel stub that swizzles the extension stack pointer and runs
   the OCaml service body (Figure 4, steps 6-7-8). *)
let expose_service t ~name ~(handler : args_linear:int -> int) =
  let kcall_name = Printf.sprintf "ksvc$%d$%s" t.gdt_cs_idx name in
  let cpu = Kernel.cpu t.kernel in
  Cpu.register_handler cpu kcall_name (fun cpu ->
      let args_koff = Cpu.get_reg cpu Reg.EBX in
      let args_linear = Kernel.klinear args_koff in
      Cpu.set_reg cpu Reg.EAX (handler ~args_linear));
  let label = "ksvc$" ^ name in
  let prog =
    [
      Asm.L label;
      (* gate frame: [eip][cs][old esp][old ss]; old esp is an
         extension-segment offset — swizzle it to a kernel offset. *)
      Asm.I (Instr.Mov (Operand.Reg Reg.EBX, Operand.deref ~disp:8 Reg.ESP));
      Asm.I
        (Instr.Alu (Instr.Add, Operand.Reg Reg.EBX, Operand.Imm (kernel_delta t)));
      Asm.I (Instr.Kcall kcall_name);
      Asm.I Instr.Lret;
    ]
  in
  let asm = emit_kernel_stub t prog in
  let entry = Asm.symbol asm label in
  let gdt = Kernel.gdt t.kernel in
  let idx =
    DT.alloc gdt
      (Desc.call_gate ~dpl:P.R1
         ~target:(Kernel.kernel_code_selector t.kernel)
         ~entry ())
  in
  let sel = Sel.encode (Sel.make ~rpl:P.R1 idx) in
  Paudit.add_segment_gate t.kernel ~cs:t.gdt_cs_idx ~slot:idx ~entry;
  t.ksvcs <- (name, sel) :: t.ksvcs;
  sel

let service_selector t name = List.assoc_opt name t.ksvcs

let pp_invoke_error ppf = function
  | No_such_service -> Fmt.string ppf "no such extension service"
  | Segment_dead -> Fmt.string ppf "extension segment was aborted"
  | Aborted_fault f -> Fmt.pf ppf "aborted on fault: %a" X86.Fault.pp f
  | Aborted_timeout e ->
      Fmt.pf ppf "aborted on time limit (%d > %d cycles)" e.Watchdog.wd_used
        e.Watchdog.wd_limit
  | Aborted_runaway -> Fmt.string ppf "aborted: instruction fuel exhausted"
