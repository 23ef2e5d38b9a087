(* The compartment driver: the one place that hosts an extensible
   application, whichever mechanism enforces the boundary.  Creating
   the application, loading extensions, resolving their functions,
   the protected call under the watchdog, outcome classification and
   Table 1 phase recovery are defined here once; the two backends are
   a record of the six things that actually differ.

   - [Segmentation]: the paper's user-level mechanism (section 4.4) —
     SPL 2 promotion, PPL marking, Prepare/Transfer stubs with an
     lret/lcall transfer and the AppCallGate return path.
   - [Mpk]: the protection-key re-expression of its paging half — the
     application stays a flat ring 3 process, its writable private
     pages carry the application key, extension pages the extension
     key, and a protected call is one stub that switches stacks and
     writes PKRU twice.  Confinement of WRPKRU itself is the verifier's
     allowed_wrpkru lint plus the auditor's INV-23 placement check.

   Selection is per process (PALLADIUM_BACKEND or set_default) and per
   world (Palladium.boot ?backend, stored in the kernel's
   policy-override table like the verify/audit/budget policies).
   Software fault isolation rewrites modules rather than hosting
   applications; the backends benchmark drives it through Kmod/Sfi. *)

module Sel = X86.Selector

type kind = Segmentation | Mpk

let all = [ Segmentation; Mpk ]

let kind_name = function Segmentation -> "seg" | Mpk -> "mpk"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seg" | "segmentation" -> Some Segmentation
  | "mpk" | "pku" | "keys" -> Some Mpk
  | _ -> None

let expected = "seg|mpk"

(* Process default, like the policy defaults in Verify/Vcost/Engine:
   atomic, domain-safe, seedable from the environment. *)
let default_kind = Atomic.make Segmentation

let default () = Atomic.get default_kind

let set_default k = Atomic.set default_kind k

let () =
  Ppolicy.seed_env "PALLADIUM_BACKEND" ~parse:kind_of_string ~expected
    ~set:set_default

(* The backend one specific world runs under: its kernel's override
   when set and parseable, else the process default. *)
let effective kernel =
  match Kernel.policy_override kernel "backend" with
  | Some s -> ( match kind_of_string s with Some k -> k | None -> default ())
  | None -> default ()

let app_key = 1

let ext_key = 2

(* PKRU while an extension runs under mpk: application key denied. *)
let mpk_ext_pkru = X86.Mmu.key_ad app_key

(* ------------------------------------------------------------------ *)
(* Hosting                                                             *)
(* ------------------------------------------------------------------ *)

type call_error =
  | Protection_fault of X86.Fault.t
  | Time_limit_exceeded of Watchdog.expiry
  | Runaway (* exceeded the simulator's instruction fuel *)

type ext = {
  x_name : string;
  x_handle : Dyld.handle;
  x_arg_slot : int; (* = initial extension ESP; top stack slot *)
  x_heap_base : int;
  x_heap_end : int;
  mutable x_heap_cursor : int;
  mutable x_functions : (string * int) list; (* function -> entry stub *)
}

type app = {
  b : backend;
  kernel : Kernel.t;
  task : Task.t;
  env : Dyld.env;
  rt : Runtime.t;
  sp2_slot : int;
  bp2_slot : int;
  stub_base : int;
  stub_end : int;
  mutable stub_cursor : int;
  mutable return_gate : int; (* seg: encoded AppCallGate selector *)
  mutable time_limit : int;
  mutable calls : int; (* statistics *)
}

(* What differs between the backends; everything else is the driver's. *)
and backend = {
  kind : kind;
  promote : app -> name:string -> unit;
      (* make the fresh task an extensible application *)
  mark : app -> name:string -> Vm_area.t list -> unit;
      (* hand a freshly loaded extension's areas to the extension *)
  stub : app -> ext -> fn_name:string -> fn_addr:int -> Asm.program * string;
      (* the protected-call entry program and its entry label *)
  set_range : app -> addr:int -> len:int -> expose:bool -> unit;
  phase_names : string list; (* the five spans between the six bounds *)
  on_abort : Cpu.t -> unit; (* after a call that did not complete *)
}

let page_size = X86.Phys_mem.page_size

(* Append assembled code to the application's stub region. *)
let emit_stubs t program =
  let asm = Asm.assemble ~org:t.stub_cursor program in
  if t.stub_cursor + asm.Asm.text_size > t.stub_end then
    invalid_arg "Pbackend: stub region exhausted";
  Code_mem.store_program (Kernel.code t.kernel) ~addr:t.stub_cursor
    asm.Asm.instrs;
  t.stub_cursor <- t.stub_cursor + asm.Asm.text_size;
  asm

(* Segmentation: init_PL promotes the task to SPL 2 (all writable pages
   PPL 0) and AppCallGate, the first stub, becomes the return gate. *)
let segmentation =
  {
    kind = Segmentation;
    promote =
      (fun t ~name ->
        ignore
          (emit_stubs t
             (Stub_gen.app_call_gate ~label:"appgate" ~mark_prefix:"app"
                ~sp2_slot:t.sp2_slot ~bp2_slot:t.bp2_slot ()));
        ignore
          (Runtime.syscall_exn t.rt ~number:Syscall.sys_init_pl ~name:"init_PL");
        t.return_gate <-
          Runtime.syscall_exn t.rt ~number:Syscall.sys_set_call_gate
            ~a1:t.stub_base ~name:"set_call_gate";
        Paudit.maybe_audit ~context:("promote " ^ name) t.kernel);
    (* The extra cost over dlopen is the PPL marking of the pages
       exposed to the extension (section 5.1). *)
    mark =
      (fun t ~name:_ areas ->
        let pages = List.fold_left (fun n a -> n + Vm_area.pages a) 0 areas in
        Cpu.charge (Kernel.cpu t.kernel)
          (Kcosts.ppl_mark_startup + (Kcosts.ppl_mark_per_page * pages)));
    stub =
      (fun t ext ~fn_name ~fn_addr ->
        let ext_cs =
          match t.task.Task.ext_cs with
          | Some s -> Sel.encode s
          | None -> invalid_arg "Pbackend: application not promoted"
        in
        let spec =
          {
            Stub_gen.fn_name;
            fn_addr;
            ext_cs;
            ext_ss = Sel.encode (Kernel.user_data_selector t.kernel);
            ext_stack_ptr = ext.x_arg_slot;
            sp2_slot = t.sp2_slot;
            bp2_slot = t.bp2_slot;
            return_gate = t.return_gate;
          }
        in
        (Stub_gen.prepare_transfer spec, Stub_gen.prepare_label spec));
    set_range =
      (fun t ~addr ~len ~expose ->
        ignore
          (Runtime.syscall_exn t.rt ~number:Syscall.sys_set_range ~a1:addr
             ~a2:len ~a3:(if expose then 1 else 0) ~name:"set_range"));
    phase_names = [ "Prepare"; "lret"; "ext.body"; "lcall"; "ret" ];
    on_abort = ignore;
  }

(* Mpk: init_mpk stamps the writable private pages with the
   application key; the task keeps its flat ring 3 segments. *)
let mpk =
  {
    kind = Mpk;
    promote =
      (fun t ~name ->
        ignore
          (Runtime.syscall_exn t.rt ~number:Syscall.sys_init_mpk ~a1:app_key
             ~name:"init_mpk");
        Paudit.register_mpk_domain t.kernel ~pid:t.task.Task.pid ~name
          ~stub_base:t.stub_base ~stub_end:t.stub_end ~app_key ~ext_key
          ~rights:[ 0; mpk_ext_pkru ];
        Paudit.maybe_audit ~context:("mpk promote " ^ name) t.kernel);
    (* set_key charges the same per-page marking cost PPL marking does,
       so load cost stays comparable across backends. *)
    mark =
      (fun t ~name areas ->
        List.iter
          (fun (a : Vm_area.t) ->
            ignore
              (Runtime.syscall_exn t.rt ~number:Syscall.sys_set_key
                 ~a1:a.Vm_area.va_start
                 ~a2:(a.Vm_area.va_end - a.Vm_area.va_start)
                 ~a3:ext_key ~name:"set_key"))
          areas;
        Paudit.maybe_audit ~context:("mpk_dlopen " ^ name) t.kernel);
    stub =
      (fun t ext ~fn_name ~fn_addr ->
        let spec =
          {
            Stub_gen.mk_fn_name = fn_name;
            mk_fn_addr = fn_addr;
            mk_ext_stack_ptr = ext.x_arg_slot;
            mk_sp2_slot = t.sp2_slot;
            mk_bp2_slot = t.bp2_slot;
            mk_ext_pkru = mpk_ext_pkru;
            mk_app_pkru = 0;
          }
        in
        (Stub_gen.mpk_prepare spec, Stub_gen.mpk_prepare_label spec));
    set_range =
      (fun t ~addr ~len ~expose ->
        ignore
          (Runtime.syscall_exn t.rt ~number:Syscall.sys_set_key ~a1:addr
             ~a2:len ~a3:(if expose then 0 else app_key) ~name:"set_key"));
    phase_names = [ "Prepare"; "wrpkru.in"; "ext.body"; "wrpkru.out"; "ret" ];
    (* An aborted call never reaches the stub's closing wrpkru.  A real
       kernel restores PKRU from the interrupted thread's saved context
       when it delivers the signal; mirror that so the application
       keeps its own rights after containment. *)
    on_abort = (fun cpu -> X86.Mmu.set_pkru (Cpu.mmu cpu) 0);
  }

let create ?backend kernel ~name =
  let kind = match backend with Some k -> k | None -> effective kernel in
  let task = Kernel.create_task kernel ~name in
  let env = Dyld.create_env () in
  let rt = Runtime.install kernel task in
  let asp = task.Task.asp in
  (* Saved stack/base pointer slots: application data, so they are
     out of the extensions' reach once promoted — extensions cannot
     corrupt them. *)
  let data_area =
    Address_space.mmap asp ~len:page_size ~perms:Vm_area.rw
      ~label:"palladium.data" Vm_area.Data
  in
  Address_space.populate asp data_area;
  (* Stub region: read-only executable — every ring and key can run
     the stubs, none can modify them. *)
  let stub_area =
    Address_space.mmap asp
      ~len:(Pconfig.stub_region_pages * page_size)
      ~perms:Vm_area.rx ~label:"palladium.stubs" Vm_area.Text
  in
  Address_space.populate asp stub_area;
  let t =
    {
      b = (match kind with Segmentation -> segmentation | Mpk -> mpk);
      kernel;
      task;
      env;
      rt;
      sp2_slot = data_area.Vm_area.va_start;
      bp2_slot = data_area.Vm_area.va_start + 4;
      stub_base = stub_area.Vm_area.va_start;
      stub_end = stub_area.Vm_area.va_end;
      stub_cursor = stub_area.Vm_area.va_start;
      return_gate = 0;
      time_limit = Pconfig.default_time_limit_cycles;
      calls = 0;
    }
  in
  t.b.promote t ~name;
  t

let backend_of t = t.b.kind

let task t = t.task

let kernel t = t.kernel

let runtime t = t.rt

let env t = t.env

let set_time_limit t cycles = t.time_limit <- cycles

let calls t = t.calls

(* Load an extension image (the verifying loader, placed in the
   extension segment) with its own stack and heap. *)
let load t image =
  let handle =
    Dyld.dlopen ~placement:Dyld.extension_segment ~kernel:t.kernel
      ~task:t.task ~env:t.env image
  in
  let asp = t.task.Task.asp in
  let stack_area =
    Address_space.mmap asp
      ~len:(Pconfig.ext_stack_pages * page_size)
      ~perms:Vm_area.rw
      ~label:(image.Image.name ^ ".stack")
      Vm_area.Ext_stack
  in
  Address_space.populate asp stack_area;
  let heap_area =
    Address_space.mmap asp ~len:(16 * page_size) ~perms:Vm_area.rw
      ~label:(image.Image.name ^ ".heap")
      Vm_area.Ext_data
  in
  Address_space.populate asp heap_area;
  t.b.mark t ~name:image.Image.name
    (stack_area :: heap_area :: handle.Dyld.h_areas);
  {
    x_name = image.Image.name;
    x_handle = handle;
    x_arg_slot = stack_area.Vm_area.va_end - 4;
    x_heap_base = heap_area.Vm_area.va_start;
    x_heap_end = heap_area.Vm_area.va_end;
    x_heap_cursor = heap_area.Vm_area.va_start;
    x_functions = [];
  }

(* Resolve an extension *function* to a freshly generated entry stub
   (cached per function).  Data symbols must be resolved with plain
   dlsym (paper section 4.4.2). *)
let resolve t ext fn_name =
  match List.assoc_opt fn_name ext.x_functions with
  | Some entry -> entry
  | None ->
      let fn_addr = Dyld.dlsym ext.x_handle fn_name in
      let program, label =
        t.b.stub t ext ~fn_name:(ext.x_name ^ "$" ^ fn_name) ~fn_addr
      in
      let entry = Asm.symbol (emit_stubs t program) label in
      ext.x_functions <- (fn_name, entry) :: ext.x_functions;
      entry

let dlsym_data ext name = Dyld.dlsym ext.x_handle name

(* Allocate from the extension's heap, which the extension may write. *)
let xmalloc ext size =
  if size < 0 then invalid_arg "Pbackend.xmalloc: negative size";
  let aligned = (size + 3) land lnot 3 in
  if ext.x_heap_cursor + aligned > ext.x_heap_end then
    invalid_arg "Pbackend.xmalloc: extension heap exhausted";
  let addr = ext.x_heap_cursor in
  ext.x_heap_cursor <- ext.x_heap_cursor + aligned;
  addr

let expose_range t ~addr ~len = t.b.set_range t ~addr ~len ~expose:true

let hide_range t ~addr ~len = t.b.set_range t ~addr ~len ~expose:false

(* ------------------------------------------------------------------ *)
(* Calling                                                             *)
(* ------------------------------------------------------------------ *)

let phase_marks = [ ".setup"; ".call"; ".body"; ".return"; ".restore"; "rt.done" ]

(* The six boundaries of one protected call, from the [Mark] stamps its
   stubs leave behind:

     Prepare   .setup   -> .call     argument copy, frame/stack set-up
     transfer  .call    -> .body     lret (seg) or wrpkru down (mpk)
     ext.body  .body    -> .return   the extension function itself
     transfer  .return  -> .restore  lcall via AppCallGate or wrpkru up
     ret       .restore -> rt.done   frame restore + near return  *)
let phase_bounds marks =
  List.map
    (fun suffix ->
      List.find_map
        (fun (n, c) -> if Filename.check_suffix n suffix then Some c else None)
        marks)
    phase_marks

(* Record the phases as child spans of the (still open) protected_call
   root; an aborted call records those it completed. *)
let record_phase_spans names marks =
  let rec go names bounds =
    match (names, bounds) with
    | name :: names, a :: (b :: _ as rest) ->
        (match (a, b) with
        | Some x, Some y when y >= x ->
            ignore (Obs.Span.record name ~start:x ~stop:y)
        | _ -> ());
        go names rest
    | _ -> ()
  in
  go names (phase_bounds marks)

let outcome (o : Runtime.outcome) =
  match o.Runtime.result with
  | Kernel.Completed -> Ok (o.Runtime.value, o.Runtime.cycles)
  | Kernel.Faulted f -> Error (Protection_fault f)
  | Kernel.Timed_out e -> Error (Time_limit_exceeded e)
  | Kernel.Out_of_fuel -> Error Runaway

let c_protected_calls = Obs.Counters.counter "core.protected_calls"

(* Protected extension call: arm the watchdog, enter user mode at the
   entry stub, and interpret the outcome. *)
let call t ~prepare ~arg =
  t.calls <- t.calls + 1;
  Obs.Counters.incr c_protected_calls;
  let wd = Kernel.watchdog t.kernel in
  let cpu = Kernel.cpu t.kernel in
  let span_on = Obs.Span.on () in
  let marks_before = if span_on then List.length (Cpu.marks cpu) else 0 in
  if span_on then
    Obs.Span.begin_ "protected_call"
      ~args:[ ("prepare", Printf.sprintf "%#x" prepare) ]
      ~at:(Cpu.cycles cpu);
  Watchdog.arm wd ~now:(Cpu.cycles cpu) ~limit:t.time_limit ();
  Cpu.reset_tick cpu (* a fresh invocation starts a fresh timer period *);
  let o = Runtime.invoke1 t.rt ~fn:prepare ~arg in
  Watchdog.disarm wd;
  (match o.Runtime.result with
  | Kernel.Completed -> ()
  | Kernel.Faulted _ | Kernel.Timed_out _ | Kernel.Out_of_fuel ->
      t.b.on_abort cpu);
  if span_on then begin
    record_phase_spans t.b.phase_names
      (List.filteri (fun i _ -> i >= marks_before) (Cpu.marks cpu));
    Obs.Span.end_ "protected_call" ~at:(Cpu.cycles cpu)
  end;
  if Obs.Trace.on () then
    Obs.Trace.emit ~cycles:(Cpu.cycles cpu)
      (Obs.Trace.Protected_call
         {
           fn = Printf.sprintf "%#x" prepare;
           outcome =
             (match o.Runtime.result with
             | Kernel.Completed -> "ok"
             | Kernel.Faulted _ -> "fault"
             | Kernel.Timed_out _ -> "timeout"
             | Kernel.Out_of_fuel -> "runaway");
           cycles = o.Runtime.cycles;
         });
  (match o.Runtime.result with
  | Kernel.Timed_out _ ->
      ignore
        (Signal.deliver t.task.Task.signals
           {
             Signal.signal = Signal.SIGALRM;
             fault_addr = None;
             reason = "extension exceeded its CPU time limit";
           })
  | _ -> ());
  outcome o

(* Unprotected local call to a function in the same protection domain
   (the Table 2 baseline). *)
let call_unprotected t ~fn ~arg = outcome (Runtime.invoke1 t.rt ~fn ~arg)

(* Kernel-side access to task memory, for tests and services. *)
let peek_u32 t addr = Address_space.peek_u32 t.task.Task.asp addr

let poke_u32 t addr v = Address_space.poke_u32 t.task.Task.asp addr v

let peek_bytes t addr len = Address_space.peek_bytes t.task.Task.asp addr len

let poke_bytes t addr bytes = Address_space.poke_bytes t.task.Task.asp addr bytes

let pp_call_error ppf = function
  | Protection_fault f -> Fmt.pf ppf "protection fault: %a" X86.Fault.pp f
  | Time_limit_exceeded e ->
      Fmt.pf ppf "time limit exceeded (%d > %d cycles)" e.Watchdog.wd_used
        e.Watchdog.wd_limit
  | Runaway -> Fmt.string ppf "runaway extension (instruction fuel exhausted)"
