(* Pluggable protection backends: the segmentation and protection-key
   mechanisms must be architecturally interchangeable — identical
   workload outputs, identical fault classifications — while the MPK
   escape hatches (forged wrpkru, wrong-keyed accesses) stay shut. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* --- differential oracle: Segmentation vs Mpk -------------------------- *)

(* A backend-neutral classification of a protected call's outcome: the
   two backends fault through different hardware (PPL page-privilege
   vs protection-key), but must agree on *what* was denied. *)
let neutral_fault = function
  | Pbackend.Protection_fault f -> (
      match f with
      | X86.Fault.Page_privilege { access; _ } | X86.Fault.Page_key { access; _ }
        -> (
          match access with
          | X86.Fault.Read -> "denied-read"
          | X86.Fault.Write -> "denied-write"
          | X86.Fault.Execute -> "denied-exec")
      | _ -> "other-fault")
  | Pbackend.Time_limit_exceeded _ -> "timeout"
  | Pbackend.Runaway -> "runaway"

type outcome = Values of int list | Text of string | Fault of string

let pp_outcome = function
  | Values vs -> "values:" ^ String.concat "," (List.map string_of_int vs)
  | Text s -> "text:" ^ s
  | Fault c -> "fault:" ^ c

type scenario =
  | Strrev of string
  | Counter of int
  | Rogue_write
  | Rogue_read
  | Spin

let pp_scenario = function
  | Strrev s -> Printf.sprintf "Strrev %S" s
  | Counter n -> Printf.sprintf "Counter %d" n
  | Rogue_write -> "Rogue_write"
  | Rogue_read -> "Rogue_read"
  | Spin -> "Spin"

let scenario_gen =
  let open QCheck.Gen in
  let ascii = map Char.chr (int_range 0x21 0x7e) in
  oneof
    [
      map (fun s -> Strrev s) (string_size ~gen:ascii (int_range 1 12));
      map (fun n -> Counter n) (int_range 1 6);
      return Rogue_write;
      return Rogue_read;
      return Spin;
    ]

(* A hidden application page the extension must not touch. *)
let private_cell app =
  let task = Pbackend.task app in
  let area =
    Address_space.mmap task.Task.asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data
  in
  Address_space.populate task.Task.asp area;
  area.Vm_area.va_start

let run_scenario backend scenario =
  let w = Palladium.boot ~backend () in
  let app = Palladium.create_backend_app w ~name:"diff" in
  let call ext fn arg =
    Pbackend.call app ~prepare:(Pbackend.resolve app ext fn) ~arg
  in
  let r =
    match scenario with
    | Strrev s -> (
        let ext = Pbackend.load app Ulib.strrev_image in
        let buf = Pbackend.xmalloc ext 64 in
        Pbackend.poke_bytes app buf (Bytes.of_string (s ^ "\000"));
        match call ext "strrev" buf with
        | Ok _ ->
            Text (Bytes.to_string (Pbackend.peek_bytes app buf (String.length s)))
        | Error e -> Fault (neutral_fault e))
    | Counter n ->
        let ext = Pbackend.load app Ulib.counter_image in
        Values
          (List.init n (fun _ ->
               match call ext "bump" 0 with
               | Ok (v, _) -> v
               | Error e -> Alcotest.failf "bump: %a" Pbackend.pp_call_error e))
    | Rogue_write -> (
        let ext = Pbackend.load app Ulib.rogue_write_image in
        let cell = private_cell app in
        Pbackend.poke_u32 app cell 0x5eed;
        match call ext "poke" cell with
        | Ok (v, _) -> Values [ v ]
        | Error e ->
            check_int "protected cell untouched" 0x5eed
              (Pbackend.peek_u32 app cell);
            Fault (neutral_fault e))
    | Rogue_read -> (
        let ext = Pbackend.load app Ulib.rogue_read_image in
        let cell = private_cell app in
        match call ext "peek" cell with
        | Ok (v, _) -> Values [ v ]
        | Error e -> Fault (neutral_fault e))
    | Spin -> (
        (* the shared abort path: watchdog expiry, SIGALRM, and an
           application that keeps working afterwards *)
        Pbackend.set_time_limit app 20_000;
        let ext = Pbackend.load app Ulib.rogue_loop_image in
        match call ext "spin" 0 with
        | Ok (v, _) -> Values [ v ]
        | Error e ->
            check_bool "SIGALRM delivered" true
              (List.exists
                 (fun i -> i.Signal.signal = Signal.SIGALRM)
                 (Signal.delivered (Pbackend.task app).Task.signals));
            (match call (Pbackend.load app Ulib.null_image) "null_fn" 0 with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "call after timeout: %a" Pbackend.pp_call_error e);
            Fault (neutral_fault e))
  in
  if backend = Pbackend.Mpk then
    check_int "PKRU restored to application rights" 0
      (X86.Mmu.pkru (Cpu.mmu (Palladium.cpu w)));
  Palladium.teardown w;
  r

let prop_backends_agree =
  QCheck.Test.make ~count:20
    ~name:"segmentation and mpk agree on every workload outcome"
    (QCheck.make scenario_gen ~print:pp_scenario)
    (fun s ->
      let seg = run_scenario Pbackend.Segmentation s in
      let mpk = run_scenario Pbackend.Mpk s in
      if seg <> mpk then
        QCheck.Test.fail_reportf "seg=%s mpk=%s" (pp_outcome seg)
          (pp_outcome mpk);
      (* rogue scenarios must actually be denied, not just agree *)
      match (s, seg) with
      | Rogue_write, Fault "denied-write" -> true
      | Rogue_read, Fault "denied-read" -> true
      | Spin, Fault "timeout" -> true
      | (Rogue_write | Rogue_read | Spin), o ->
          QCheck.Test.fail_reportf "rogue extension not contained: %s"
            (pp_outcome o)
      | _ -> true)

(* --- escape regressions ------------------------------------------------ *)

(* A wrong-keyed store faults with the page's key, the protected cell
   survives, and expose/hide toggles accessibility — the MPK analogue
   of the PPL expose/hide test. *)
let test_wrong_key_store_faults () =
  let w = Palladium.boot ~backend:Pbackend.Mpk () in
  let app = Palladium.create_backend_app w ~name:"app" in
  let ext = Pbackend.load app Ulib.rogue_write_image in
  let poke = Pbackend.resolve app ext "poke" in
  let cell = private_cell app in
  Pbackend.poke_u32 app cell 0x5eed;
  (match Pbackend.call app ~prepare:poke ~arg:cell with
  | Error (Pbackend.Protection_fault (X86.Fault.Page_key { key; _ })) ->
      check_int "faulting key is the application key" Pbackend.app_key key
  | Error e -> Alcotest.failf "wrong fault: %a" Pbackend.pp_call_error e
  | Ok _ -> Alcotest.fail "wrong-keyed store completed");
  check_int "cell survived the rogue store" 0x5eed (Pbackend.peek_u32 app cell);
  Pbackend.expose_range app ~addr:cell ~len:4;
  (match Pbackend.call app ~prepare:poke ~arg:cell with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "exposed store failed: %a" Pbackend.pp_call_error e);
  check_int "exposed cell written" 0xdead (Pbackend.peek_u32 app cell);
  Pbackend.hide_range app ~addr:cell ~len:4;
  match Pbackend.call app ~prepare:poke ~arg:cell with
  | Error (Pbackend.Protection_fault (X86.Fault.Page_key _)) -> ()
  | Error e -> Alcotest.failf "wrong fault after hide: %a" Pbackend.pp_call_error e
  | Ok _ -> Alcotest.fail "store completed after hide_range"

let forged_wrpkru_image =
  Image.create ~name:"forged" ~exports:[ "evil" ]
    [
      Asm.L "evil";
      Asm.I (Instr.Wrpkru (Operand.Imm 0)); (* regain all rights *)
      Asm.I (Instr.Mov (Operand.Reg Reg.EAX, Operand.Imm 1));
      Asm.I Instr.Ret;
    ]

(* An extension image carrying its own wrpkru never loads: the
   verifier lint treats any wrpkru outside backend-generated stubs as
   an error, constant operand or not. *)
let test_forged_wrpkru_rejected_by_verifier () =
  let report =
    Verify.verify ~entries:[ "evil" ]
      ~region:(0, 1 lsl 30)
      ~name:"forged" forged_wrpkru_image.Image.text
  in
  check_bool "forged wrpkru image rejected" false (Verify.ok report);
  (* the backend's own stubs pass: their operand is in the assigned set *)
  let sanctioned =
    Verify.verify ~entries:[ "evil" ]
      ~region:(0, 1 lsl 30)
      ~allowed_wrpkru:(fun v -> v = 0)
      ~name:"sanctioned" forged_wrpkru_image.Image.text
  in
  check_bool "backend-assigned wrpkru accepted" true (Verify.ok sanctioned);
  (* a non-constant operand is unauditable even for the backend *)
  let indirect =
    Image.create ~name:"indirect-wrpkru" ~exports:[ "evil" ]
      [
        Asm.L "evil";
        Asm.I (Instr.Wrpkru (Operand.Reg Reg.EAX));
        Asm.I Instr.Ret;
      ]
  in
  let r =
    Verify.verify ~entries:[ "evil" ]
      ~region:(0, 1 lsl 30)
      ~allowed_wrpkru:(fun _ -> true)
      ~name:"indirect-wrpkru" indirect.Image.text
  in
  check_bool "non-constant wrpkru rejected" false (Verify.ok r)

(* Under a Reject world policy the forged image must not even load. *)
let test_forged_wrpkru_load_rejected () =
  let w =
    Palladium.boot ~backend:Pbackend.Mpk ~verify_policy:Verify.Reject ()
  in
  let app = Palladium.create_backend_app w ~name:"app" in
  match Pbackend.load app forged_wrpkru_image with
  | exception Verify.Rejected _ -> ()
  | _ -> Alcotest.fail "forged wrpkru image loaded under Reject policy"

(* A wrpkru planted in code memory outside the registered stub ranges
   is a forged protection-key gate: the auditor must cite INV-23. *)
let test_rogue_wrpkru_flagged_by_audit () =
  let w = Palladium.boot ~backend:Pbackend.Mpk () in
  let kernel = Palladium.kernel w in
  let app = Palladium.create_backend_app w ~name:"app" in
  ignore (Pbackend.load app Ulib.null_image);
  let clean = Paudit.force_audit ~context:"before forgery" kernel in
  check_bool "clean mpk world audits clean" true (Audit.Engine.ok clean);
  Code_mem.store (Kernel.code kernel) ~addr:0x00ff0000
    (Instr.Wrpkru (Operand.Imm 0));
  let r = Paudit.force_audit ~context:"after forgery" kernel in
  let ids =
    List.sort_uniq String.compare
      (List.map (fun f -> f.Audit.Finding.f_id) r.Audit.Engine.rp_findings)
  in
  check_bool "INV-23 cited" true (List.mem "INV-23" ids)

(* The whole point of the backend: the protection-key transfer must be
   measurably cheaper than the segmentation gate path. *)
let test_mpk_transfer_cheaper () =
  let cost backend =
    let w = Palladium.boot ~backend () in
    let call =
      Workload.warm_null_call (Palladium.create_backend_app w ~name:"cost")
    in
    let c =
      match call () with
      | Ok (_, cycles) -> cycles
      | Error e -> Alcotest.failf "null call: %a" Pbackend.pp_call_error e
    in
    Palladium.teardown w;
    c
  in
  let seg = cost Pbackend.Segmentation and mpk = cost Pbackend.Mpk in
  check_bool
    (Printf.sprintf "mpk (%d cycles) cheaper than seg (%d cycles)" mpk seg)
    true (mpk < seg)

(* Backend selection: boot override beats the process default, and the
   world's apps follow it. *)
let test_backend_selection () =
  let w = Palladium.boot ~backend:Pbackend.Mpk () in
  check_string "world backend" "mpk" (Pbackend.kind_name (Palladium.backend w));
  check_string "world override"
    "mpk"
    (Pbackend.kind_name
       (Pbackend.backend_of (Palladium.create_backend_app w ~name:"a")));
  check_string "explicit backend" "seg"
    (Pbackend.kind_name
       (Pbackend.backend_of
          (Palladium.create_backend_app ~backend:Pbackend.Segmentation w
             ~name:"b")));
  (* a plain boot follows the process default, whatever that is —
     CI runs this suite under PALLADIUM_BACKEND=seg and =mpk *)
  let plain = Palladium.boot () in
  check_string "default backend"
    (Pbackend.kind_name (Pbackend.default ()))
    (Pbackend.kind_name (Palladium.backend plain));
  List.iter
    (fun s ->
      match Pbackend.kind_of_string s with
      | Some _ -> Alcotest.failf "%s parsed as a hosting backend" s
      | None -> ())
    [ "nonsense"; "sfi"; "sfi-full"; "sfi-verified" ]

(* A negative size must not move the heap cursor below the extension
   heap (rounding keeps it negative, so the exhaustion check alone
   would pass it). *)
let test_xmalloc_rejects_negative () =
  List.iter
    (fun backend ->
      let w = Palladium.boot ~backend () in
      let app = Palladium.create_backend_app w ~name:"heap" in
      let ext = Pbackend.load app Ulib.null_image in
      let first = Pbackend.xmalloc ext 8 in
      (match Pbackend.xmalloc ext (-64) with
      | exception Invalid_argument _ -> ()
      | a -> Alcotest.failf "xmalloc (-64) returned %#x" a);
      let next = Pbackend.xmalloc ext 4 in
      check_int "cursor unchanged by the rejected call" (first + 8) next;
      check_bool "allocation inside the extension heap" true
        (next >= ext.Pbackend.x_heap_base && next + 4 <= ext.Pbackend.x_heap_end);
      Palladium.teardown w)
    Pbackend.all

(* Long runs keep bounded logs: 100k warm protected calls leave at most
   a ring's worth of marks (while the mark sequence still counts all
   7 per call), and more rogue stores than the fault logs hold leave
   those logs at capacity. *)
let test_logs_stay_bounded () =
  List.iter
    (fun backend ->
      let w = Palladium.boot ~backend () in
      let app = Palladium.create_backend_app w ~name:"bounded" in
      let cpu = Palladium.cpu w in
      let null_call = Workload.warm_null_call app in
      let call () =
        match null_call () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "null call: %a" Pbackend.pp_call_error e
      in
      let calls = 100_000 in
      let seq0 = Cpu.mark_seq cpu in
      for _ = 1 to calls do
        call ()
      done;
      check_int "7 marks per call" (7 * calls) (Cpu.mark_seq cpu - seq0);
      check_bool "marks bounded" true
        (List.length (Cpu.marks cpu) <= Cpu.mark_capacity);
      check_int "last call's window" 7
        (List.length (Cpu.marks_since cpu (Cpu.mark_seq cpu - 7)));
      let rogue = Pbackend.load app Ulib.rogue_write_image in
      let poke = Pbackend.resolve app rogue "poke" in
      let cell = private_cell app in
      for _ = 1 to Signal.log_capacity + 16 do
        match Pbackend.call app ~prepare:poke ~arg:cell with
        | Ok _ -> Alcotest.fail "rogue store completed"
        | Error _ -> ()
      done;
      check_int "segv log at capacity" Signal.log_capacity
        (List.length (Kernel.segv_log (Palladium.kernel w)));
      check_int "delivered signals at capacity" Signal.log_capacity
        (List.length (Signal.delivered (Pbackend.task app).Task.signals));
      Palladium.teardown w)
    Pbackend.all

let () =
  Alcotest.run "backends"
    [
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_backends_agree ] );
      ( "escapes",
        [
          Alcotest.test_case "wrong-keyed store faults" `Quick
            test_wrong_key_store_faults;
          Alcotest.test_case "forged wrpkru rejected by verifier" `Quick
            test_forged_wrpkru_rejected_by_verifier;
          Alcotest.test_case "forged wrpkru load rejected" `Quick
            test_forged_wrpkru_load_rejected;
          Alcotest.test_case "rogue wrpkru flagged by audit" `Quick
            test_rogue_wrpkru_flagged_by_audit;
        ] );
      ( "cost",
        [
          Alcotest.test_case "mpk transfer cheaper than seg" `Quick
            test_mpk_transfer_cheaper;
        ] );
      ( "selection",
        [ Alcotest.test_case "backend selection layers" `Quick test_backend_selection ] );
      ( "driver",
        [
          Alcotest.test_case "xmalloc rejects negative sizes" `Quick
            test_xmalloc_rejects_negative;
        ] );
      ( "memory",
        [
          Alcotest.test_case "marks and fault logs stay bounded" `Quick
            test_logs_stay_bounded;
        ] );
    ]
