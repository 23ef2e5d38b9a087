(* Integration tests for the Palladium core: the user-level and
   kernel-level extension mechanisms end to end on the simulated
   machine. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* EAX holds 32-bit two's-complement values; sign-extend for errno
   comparisons. *)
let s32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(* --- User-level mechanism ------------------------------------------ *)

let test_app_boots () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let task = Pbackend.task app in
  check_bool "promoted to SPL2" true (Task.is_promoted task);
  check_bool "address space promoted" true
    (Address_space.is_promoted task.Task.asp)

let test_null_extension_call () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app ext "null_fn" in
  match Pbackend.call app ~prepare ~arg:42 with
  | Ok (_value, cycles) ->
      check_bool "cycles positive" true (cycles > 0)
  | Error e -> Alcotest.failf "call failed: %a" Pbackend.pp_call_error e

let test_strrev_extension () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.strrev_image in
  let prepare = Pbackend.resolve app ext "strrev" in
  (* Shared buffer: allocated in the extension heap so both sides can
     touch it. *)
  let buf = Pbackend.xmalloc ext 64 in
  Pbackend.poke_bytes app buf (Bytes.of_string "hello world\000");
  (match Pbackend.call app ~prepare ~arg:buf with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "strrev failed: %a" Pbackend.pp_call_error e);
  let out = Pbackend.peek_bytes app buf 11 in
  Alcotest.(check string) "reversed" "dlrow olleh" (Bytes.to_string out)

let run_rogue image fn arg =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app image in
  let prepare = Pbackend.resolve app ext fn in
  let arg = arg app ext in
  (app, Pbackend.call app ~prepare ~arg)

let test_rogue_write_app_data_segvs () =
  (* The rogue writes into the application's private data (PPL 0). *)
  let app_data_addr (app : Pbackend.app) _ext =
    (* the SP2 slot page: application-private, writable, PPL 0 *)
    match
      List.find_opt
        (fun (a : Vm_area.t) -> a.Vm_area.label = "palladium.data")
        (Address_space.areas (Pbackend.task app).Task.asp)
    with
    | Some a -> a.Vm_area.va_start
    | None -> Alcotest.fail "palladium.data area missing"
  in
  let app, result = run_rogue Ulib.rogue_write_image "poke" app_data_addr in
  (match result with
  | Error (Pbackend.Protection_fault f) ->
      check_bool "page fault" true (X86.Fault.is_page_fault f)
  | Ok _ -> Alcotest.fail "rogue write succeeded!"
  | Error e -> Alcotest.failf "unexpected error: %a" Pbackend.pp_call_error e);
  (* SIGSEGV was recorded against the task. *)
  let task = Pbackend.task app in
  check_int "one segv" 1 (List.length (Signal.delivered task.Task.signals))

let test_rogue_write_own_heap_ok () =
  let own_heap _app ext = Pbackend.xmalloc ext 16 in
  let _app, result = run_rogue Ulib.rogue_write_image "poke" own_heap in
  match result with
  | Ok (v, _) -> check_int "returned 1" 1 v
  | Error e -> Alcotest.failf "write to own heap failed: %a" Pbackend.pp_call_error e

let test_rogue_infinite_loop_times_out () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  Pbackend.set_time_limit app 20_000;
  let ext = Pbackend.load app Ulib.rogue_loop_image in
  let prepare = Pbackend.resolve app ext "spin" in
  match Pbackend.call app ~prepare ~arg:0 with
  | Error (Pbackend.Time_limit_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "infinite loop returned?!"
  | Error e -> Alcotest.failf "unexpected error: %a" Pbackend.pp_call_error e

let test_rogue_syscall_rejected () =
  let _app, result = run_rogue Ulib.rogue_syscall_image "try_syscall" (fun _ _ -> 0) in
  match result with
  | Ok (v, _) -> check_int "EPERM" (Errno.to_ret Errno.EPERM) (s32 v)
  | Error e -> Alcotest.failf "unexpected error: %a" Pbackend.pp_call_error e

let test_extension_counter_state () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.counter_image in
  let prepare = Pbackend.resolve app ext "bump" in
  let call () =
    match Pbackend.call app ~prepare ~arg:0 with
    | Ok (v, _) -> v
    | Error e -> Alcotest.failf "bump failed: %a" Pbackend.pp_call_error e
  in
  check_int "first" 1 (call ());
  check_int "second" 2 (call ());
  check_int "third" 3 (call ())

(* --- Kernel-level mechanism ----------------------------------------- *)

let boot_with_task () =
  let w = Palladium.boot () in
  let task = Kernel.create_task (Palladium.kernel w) ~name:"init" in
  (w, task)

let test_kernel_null_extension () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  ignore (Kernel_ext.insmod seg Ulib.null_image);
  match Kernel_ext.invoke ~task seg ~name:"nullext$null_fn" ~arg:7 with
  | Ok (Some (_v, cycles)) -> check_bool "cycles positive" true (cycles > 0)
  | Ok None -> Alcotest.fail "service not found"
  | Error e -> Alcotest.failf "invoke failed: %a" Kernel_ext.pp_invoke_error e

let test_kernel_missing_service_noop () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  match Kernel_ext.invoke ~task seg ~name:"nosuch" ~arg:0 with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "phantom service"
  | Error e -> Alcotest.failf "unexpected error: %a" Kernel_ext.pp_invoke_error e

let test_kernel_rogue_confined () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  ignore (Kernel_ext.insmod seg Ulib.rogue_read_image);
  (* Read far beyond the segment limit: the kernel address of the GDT
     area, say 16 MB past the segment size. *)
  let outside = Kernel_ext.seg_size seg + (16 * 1024 * 1024) in
  (match Kernel_ext.invoke ~task seg ~name:"rogueread$peek" ~arg:outside with
  | Error (Kernel_ext.Aborted_fault _) -> ()
  | Ok _ -> Alcotest.fail "out-of-segment read succeeded!"
  | Error e -> Alcotest.failf "unexpected error: %a" Kernel_ext.pp_invoke_error e);
  check_bool "segment dead" true (Kernel_ext.is_dead seg);
  (* Subsequent invocations are refused. *)
  match Kernel_ext.invoke ~task seg ~name:"rogueread$peek" ~arg:0 with
  | Error Kernel_ext.Segment_dead -> ()
  | _ -> Alcotest.fail "dead segment still serving"

let test_kernel_async_queue () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  ignore (Kernel_ext.insmod seg Ulib.counter_image);
  Kernel_ext.post_async seg ~name:"counter$bump" ~arg:0;
  Kernel_ext.post_async seg ~name:"counter$bump" ~arg:0;
  check_int "queued" 2 (Kernel_ext.pending seg);
  check_bool "busy" true (Kernel_ext.is_busy seg);
  let results = Kernel_ext.schedule ~task seg in
  check_int "ran both" 2 (List.length results);
  check_bool "idle again" false (Kernel_ext.is_busy seg);
  match Kernel_ext.invoke ~task seg ~name:"counter$bump" ~arg:0 with
  | Ok (Some (v, _)) -> check_int "state persisted" 3 v
  | _ -> Alcotest.fail "final bump failed"

(* --- GOT protection and shared libraries -------------------------------- *)

let test_extension_calls_libc_via_plt () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  ignore
    (Dyld.dlopen ~kernel:(Pbackend.kernel app) ~task:(Pbackend.task app)
       ~env:(Pbackend.env app) Ulib.libc_image);
  let client = Pbackend.load app Ulib.strlen_client_image in
  let prepare = Pbackend.resolve app client "len_of" in
  let buf = Pbackend.xmalloc client 32 in
  Pbackend.poke_bytes app buf (Bytes.of_string "seven!!\000");
  match Pbackend.call app ~prepare ~arg:buf with
  | Ok (v, _) -> check_int "strlen through GOT/PLT from SPL3" 7 v
  | Error e -> Alcotest.failf "plt call failed: %a" Pbackend.pp_call_error e

let test_got_write_blocked () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  ignore
    (Dyld.dlopen ~kernel:(Pbackend.kernel app) ~task:(Pbackend.task app)
       ~env:(Pbackend.env app) Ulib.libc_image);
  let client = Pbackend.load app Ulib.strlen_client_image in
  let got =
    match client.Pbackend.x_handle.Dyld.h_got_base with
    | Some g -> g
    | None -> Alcotest.fail "client has no GOT"
  in
  let rogue = Pbackend.load app Ulib.rogue_write_image in
  let poke = Pbackend.resolve app rogue "poke" in
  (match Pbackend.call app ~prepare:poke ~arg:got with
  | Error (Pbackend.Protection_fault (X86.Fault.Page_readonly _)) -> ()
  | Ok _ -> Alcotest.fail "GOT overwrite succeeded!"
  | Error e -> Alcotest.failf "unexpected: %a" Pbackend.pp_call_error e);
  (* but extensions can still *read* the GOT (they must, for the PLT) *)
  let peek_ext = Pbackend.load app Ulib.rogue_read_image in
  let peek = Pbackend.resolve app peek_ext "peek" in
  match Pbackend.call app ~prepare:peek ~arg:got with
  | Ok (v, _) -> check_bool "GOT readable, bound" true (v <> 0)
  | Error e -> Alcotest.failf "GOT read failed: %a" Pbackend.pp_call_error e

(* --- Application services ------------------------------------------------- *)

let test_application_service_from_extension () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  (* The application exposes a "buffered print" style service: it
     reads the extension's argument word and accumulates it. *)
  let accumulated = ref [] in
  let app_ref = ref None in
  let sel =
    User_ext.add_service app ~name:"log_value" ~handler:(fun ~args_base ->
        let app = Option.get !app_ref in
        let v = Pbackend.peek_u32 app args_base in
        accumulated := v :: !accumulated;
        v + 1000)
  in
  app_ref := Some app;
  (* the client discovers the gate selector through a shared slot *)
  let pre_ext = Pbackend.load app Ulib.rogue_read_image in
  let slot = Pbackend.xmalloc pre_ext 4 in
  Pbackend.poke_u32 app slot sel;
  let client = Pbackend.load app (Ulib.service_client_image ~slot_addr:slot) in
  let use = Pbackend.resolve app client "use_service" in
  (match Pbackend.call app ~prepare:use ~arg:77 with
  | Ok (v, _) -> check_int "service result returned to extension" 1077 v
  | Error e -> Alcotest.failf "service call failed: %a" Pbackend.pp_call_error e);
  Alcotest.(check (list int)) "service saw the argument" [ 77 ] !accumulated

(* --- Guard (protected memory service) -------------------------------------- *)

let test_guard_bounds () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let g = Guard.create app ~size:128 in
  (match Guard.store g ~offset:64 ~value:0xAB with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "in-bounds store failed");
  (match Guard.load g ~offset:64 with
  | Ok v -> check_int "roundtrip" 0xAB v
  | Error _ -> Alcotest.fail "in-bounds load failed");
  (match Guard.store g ~offset:128 ~value:1 with
  | Error (Guard.Out_of_bounds _) -> ()
  | Ok () -> Alcotest.fail "store past the limit succeeded");
  match Guard.load g ~offset:(-4) with
  | Error (Guard.Out_of_bounds _) | Ok _ ->
      (* negative offsets wrap to huge unsigned values: must be out *)
      (match Guard.load g ~offset:0xFFFF with
      | Error (Guard.Out_of_bounds _) -> ()
      | Ok _ -> Alcotest.fail "far offset succeeded")

(* --- fork / exec with extensions ------------------------------------------- *)

let test_fork_passes_extensions () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.counter_image in
  let prepare = Pbackend.resolve app ext "bump" in
  (match Pbackend.call app ~prepare ~arg:0 with
  | Ok (v, _) -> check_int "parent bump" 1 v
  | Error e -> Alcotest.failf "parent call: %a" Pbackend.pp_call_error e);
  let kernel = Palladium.kernel w in
  let child = Kernel.fork_task kernel (Pbackend.task app) in
  check_bool "child promoted" true (Task.is_promoted child);
  (* the child's address space has the extension areas, with PPLs *)
  let child_ext_areas =
    List.filter
      (fun (a : Vm_area.t) ->
        match a.Vm_area.kind with
        | Vm_area.Ext_code | Vm_area.Ext_data | Vm_area.Ext_stack -> true
        | _ -> false)
      (Address_space.areas child.Task.asp)
  in
  check_bool "extension areas inherited" true (List.length child_ext_areas >= 3);
  List.iter
    (fun (a : Vm_area.t) ->
      check_bool "inherited ext area stays PPL1" true (a.Vm_area.ppl = X86.Privilege.User))
    child_ext_areas

(* --- Kernel extension extras ------------------------------------------------ *)

let test_kernel_service_exposed () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  let kernel = Palladium.kernel w in
  let sel =
    Kernel_ext.expose_service seg ~name:"triple" ~handler:(fun ~args_linear ->
        3 * Kernel.kpeek_u32 kernel args_linear)
  in
  check_bool "selector looks like a gate" true (sel > 0);
  check_bool "registered" true (Kernel_ext.service_selector seg "triple" = Some sel);
  (* a module that calls the service *)
  let image =
    Image.create ~name:"svcuser" ~exports:[ "go" ]
      [
        Asm.L "go";
        Asm.I (Instr.Push (Operand.deref ~disp:4 Reg.ESP));
        Asm.I (Instr.Lcall sel);
        Asm.I (Instr.Alu (Instr.Add, Operand.Reg Reg.ESP, Operand.Imm 4));
        Asm.I Instr.Ret;
      ]
  in
  ignore (Kernel_ext.insmod seg image);
  match Kernel_ext.invoke ~task seg ~name:"svcuser$go" ~arg:14 with
  | Ok (Some (v, _)) -> check_int "kernel service result" 42 v
  | _ -> Alcotest.fail "service-using extension failed"

let test_kernel_shared_area () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  (* module with a shared area that sums two words from it *)
  let image =
    Image.create ~name:"summer"
      ~bss:[ Image.bss_item Pconfig.shared_area_symbol 256 ]
      ~exports:[ "sum2" ]
      [
        Asm.L "sum2";
        Asm.I (Instr.Mov (Operand.Reg Reg.EDX, Operand.deref ~disp:4 Reg.ESP));
        Asm.I (Instr.Mov (Operand.Reg Reg.EAX, Operand.deref Reg.EDX));
        Asm.I (Instr.Alu (Instr.Add, Operand.Reg Reg.EAX, Operand.deref ~disp:4 Reg.EDX));
        Asm.I Instr.Ret;
      ]
  in
  ignore (Kernel_ext.insmod seg image);
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 30l;
  Bytes.set_int32_le b 4 12l;
  Kernel_ext.write_shared seg ~off:0 b;
  let shared_off =
    match Kernel_ext.shared_linear seg with
    | Some l -> Kernel_ext.to_segment_offset seg l
    | None -> Alcotest.fail "shared area missing"
  in
  match Kernel_ext.invoke ~task seg ~name:"summer$sum2" ~arg:shared_off with
  | Ok (Some (v, _)) -> check_int "sum through shared area" 42 v
  | _ -> Alcotest.fail "shared-area extension failed"

let test_kernel_ext_timeout_aborts () =
  let w, task = boot_with_task () in
  let seg = Palladium.create_kernel_segment w in
  ignore (Kernel_ext.insmod seg Ulib.rogue_loop_image);
  match Kernel_ext.invoke ~task seg ~name:"rogueloop$spin" ~arg:0 with
  | Error (Kernel_ext.Aborted_timeout _) ->
      check_bool "segment aborted" true (Kernel_ext.is_dead seg)
  | _ -> Alcotest.fail "expected timeout abort"

(* --- misc API edges ----------------------------------------------------------- *)

let test_seg_dlsym_caches_stubs () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.null_image in
  let p1 = Pbackend.resolve app ext "null_fn" in
  let p2 = Pbackend.resolve app ext "null_fn" in
  check_int "same Prepare for the same function" p1 p2

let test_xmalloc_exhaustion () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.null_image in
  match
    for _ = 1 to 1000 do
      ignore (Pbackend.xmalloc ext 4096)
    done
  with
  | () -> Alcotest.fail "expected heap exhaustion"
  | exception Invalid_argument _ -> ()

let test_multiple_extensions_coexist () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let c = Pbackend.load app Ulib.counter_image in
  let s = Pbackend.load app Ulib.strrev_image in
  let bump = Pbackend.resolve app c "bump" in
  let rev = Pbackend.resolve app s "strrev" in
  let buf = Pbackend.xmalloc s 16 in
  Pbackend.poke_bytes app buf (Bytes.of_string "ab\000");
  (match Pbackend.call app ~prepare:bump ~arg:0 with
  | Ok (v, _) -> check_int "counter" 1 v
  | Error e -> Alcotest.failf "bump: %a" Pbackend.pp_call_error e);
  (match Pbackend.call app ~prepare:rev ~arg:buf with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rev: %a" Pbackend.pp_call_error e);
  Alcotest.(check string)
    "both extensions worked" "ba"
    (Bytes.to_string (Pbackend.peek_bytes app buf 2));
  check_int "call count tracked" 2 (Pbackend.calls app)

let test_protected_call_cost_bounds () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app ext "null_fn" in
  ignore (Pbackend.call app ~prepare ~arg:0);
  match Pbackend.call app ~prepare ~arg:0 with
  | Ok (_, cycles) ->
      (* whole warm invocation incl. trampoline and hlt; the paper's
         protected call is ~142 cycles *)
      check_bool
        (Printf.sprintf "warm call %d cycles within [140, 200]" cycles)
        true
        (cycles >= 140 && cycles <= 200)
  | Error e -> Alcotest.failf "call: %a" Pbackend.pp_call_error e

(* --- World settings ----------------------------------------------- *)

(* The backend is fixed at boot: changing the process default later
   moves neither the world nor its new applications. *)
let test_backend_fixed_at_boot () =
  let saved = Pbackend.default () in
  Fun.protect
    ~finally:(fun () -> Pbackend.set_default saved)
    (fun () ->
      Pbackend.set_default Pbackend.Mpk;
      let w = Palladium.boot () in
      Pbackend.set_default Pbackend.Segmentation;
      check_bool "world keeps its boot backend" true
        (Palladium.backend w = Pbackend.Mpk);
      check_bool "new apps follow the world, not the default" true
        (Pbackend.backend_of (Palladium.create_backend_app w ~name:"a")
        = Pbackend.Mpk))

let test_budget_validation () =
  List.iter
    (fun n ->
      match Palladium.boot ~budget_cycles:n () with
      | _ -> Alcotest.failf "budget_cycles %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; -5 ];
  check_int "budget of 1 accepted" 1
    (Kernel.budget_cycles (Palladium.kernel (Palladium.boot ~budget_cycles:1 ())))

let () =
  Alcotest.run "palladium"
    [
      ( "user-ext",
        [
          Alcotest.test_case "app boots and promotes" `Quick test_app_boots;
          Alcotest.test_case "null extension call" `Quick test_null_extension_call;
          Alcotest.test_case "strrev through shared heap" `Quick
            test_strrev_extension;
          Alcotest.test_case "rogue write to app data segvs" `Quick
            test_rogue_write_app_data_segvs;
          Alcotest.test_case "write to own heap allowed" `Quick
            test_rogue_write_own_heap_ok;
          Alcotest.test_case "infinite loop hits time limit" `Quick
            test_rogue_infinite_loop_times_out;
          Alcotest.test_case "direct syscall rejected (taskSPL)" `Quick
            test_rogue_syscall_rejected;
          Alcotest.test_case "extension keeps state across calls" `Quick
            test_extension_counter_state;
        ] );
      ( "kernel-ext",
        [
          Alcotest.test_case "null kernel extension" `Quick
            test_kernel_null_extension;
          Alcotest.test_case "missing service is a no-op" `Quick
            test_kernel_missing_service_noop;
          Alcotest.test_case "rogue kernel ext confined by segment" `Quick
            test_kernel_rogue_confined;
          Alcotest.test_case "async request queue" `Quick test_kernel_async_queue;
          Alcotest.test_case "exposed kernel service" `Quick
            test_kernel_service_exposed;
          Alcotest.test_case "shared data area" `Quick test_kernel_shared_area;
          Alcotest.test_case "timeout aborts segment" `Quick
            test_kernel_ext_timeout_aborts;
        ] );
      ( "got-and-libraries",
        [
          Alcotest.test_case "extension calls libc via PLT" `Quick
            test_extension_calls_libc_via_plt;
          Alcotest.test_case "GOT write blocked, read allowed" `Quick
            test_got_write_blocked;
        ] );
      ( "services",
        [
          Alcotest.test_case "application service from extension" `Quick
            test_application_service_from_extension;
        ] );
      ( "guard",
        [ Alcotest.test_case "segment-bounded region" `Quick test_guard_bounds ] );
      ( "process",
        [
          Alcotest.test_case "fork passes extensions" `Quick
            test_fork_passes_extensions;
        ] );
      ( "api",
        [
          Alcotest.test_case "seg_dlsym caches stubs" `Quick
            test_seg_dlsym_caches_stubs;
          Alcotest.test_case "xmalloc exhaustion" `Quick test_xmalloc_exhaustion;
          Alcotest.test_case "multiple extensions coexist" `Quick
            test_multiple_extensions_coexist;
          Alcotest.test_case "protected call cost bounds" `Quick
            test_protected_call_cost_bounds;
        ] );
      ( "world",
        [
          Alcotest.test_case "backend fixed at boot" `Quick
            test_backend_fixed_at_boot;
          Alcotest.test_case "budget validation" `Quick test_budget_validation;
        ] );
    ]
