(* Tests for the certified-resource-bound layer: the Vcfg loop API on
   nested and irreducible control flow, finiteness and saturation of
   the WCET accumulators (including deterministic overflow witnesses —
   trip products sum toward native-int range), a qcheck γ-soundness
   property tying certified bounds to concrete Cycles charging on the
   simulated CPU, the cost oracle's ability to catch planted lying
   bounds, and the budget-driven watchdog abort path (segment killed,
   gates cleared, world still audits clean). *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let i x = Asm.I x

let reg r = Operand.Reg r

let imm v = Operand.Imm v

(* --- Vcfg: natural loops ------------------------------------------------ *)

(* inner self-loop nested in an outer loop:
     f:      eax := 0
     outer:  ebx := 0
     inner:  ebx += 1; cmp ebx,10; jne inner
             eax += 1; cmp eax,5;  jne outer
             ret *)
let nested_prog =
  [
    Asm.L "f";
    i (Instr.Mov (reg Reg.EAX, imm 0));
    Asm.L "outer";
    i (Instr.Mov (reg Reg.EBX, imm 0));
    Asm.L "inner";
    i (Instr.Alu (Instr.Add, reg Reg.EBX, imm 1));
    i (Instr.Cmp (reg Reg.EBX, imm 10));
    i (Instr.Jcc (Instr.Ne, Instr.Label "inner"));
    i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 1));
    i (Instr.Cmp (reg Reg.EAX, imm 5));
    i (Instr.Jcc (Instr.Ne, Instr.Label "outer"));
    i Instr.Ret;
  ]

let cfg_of prog = Vcfg.build ~org:0 ~externs:(fun _ -> false) prog

let test_nested_loops () =
  let cfg = cfg_of nested_prog in
  let entry =
    match Vcfg.entry_blocks cfg ~entries:[ "f" ] with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected a single entry block"
  in
  let loops, irreducible = Vcfg.loops cfg ~entry in
  check_int "no irreducible edges" 0 (List.length irreducible);
  check_int "two natural loops" 2 (List.length loops);
  (* loops come back sorted by header; the outer loop's header block
     precedes the inner's, and the inner body nests inside the outer *)
  let outer, inner =
    match loops with [ a; b ] -> (a, b) | _ -> assert false
  in
  check_bool "distinct headers" true (outer.Vcfg.l_header <> inner.Vcfg.l_header);
  check_bool "headers in their own bodies" true
    (List.mem outer.Vcfg.l_header outer.Vcfg.l_body
    && List.mem inner.Vcfg.l_header inner.Vcfg.l_body);
  check_bool "inner body nests inside the outer body" true
    (List.for_all (fun b -> List.mem b outer.Vcfg.l_body) inner.Vcfg.l_body);
  check_bool "outer body is strictly larger" true
    (List.length outer.Vcfg.l_body > List.length inner.Vcfg.l_body);
  (* dominator sanity: both headers are dominated by the entry, and
     the outer header dominates the inner one *)
  let idom = Vcfg.dominators cfg ~entry in
  check_bool "entry dominates the outer header" true
    (Vcfg.dominates idom entry outer.Vcfg.l_header);
  check_bool "outer header dominates the inner header" true
    (Vcfg.dominates idom outer.Vcfg.l_header inner.Vcfg.l_header);
  check_int "two back edges" 2 (List.length (Vcfg.back_edges cfg ~entry))

(* a two-block cycle entered at both blocks: the retreating edge's
   destination does not dominate its source, so no natural loop exists
   and the edge must be reported in the irreducible remainder:
     f: jeq a
     b: jmp a
     a: jmp b *)
let irreducible_prog =
  [
    Asm.L "f";
    i (Instr.Jcc (Instr.Eq, Instr.Label "a"));
    Asm.L "b";
    i (Instr.Jmp (Instr.Label "a"));
    Asm.L "a";
    i (Instr.Jmp (Instr.Label "b"));
  ]

let test_irreducible_cycle () =
  let cfg = cfg_of irreducible_prog in
  let entry =
    match Vcfg.entry_blocks cfg ~entries:[ "f" ] with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected a single entry block"
  in
  check_int "one retreating edge" 1 (List.length (Vcfg.back_edges cfg ~entry));
  let loops, irreducible = Vcfg.loops cfg ~entry in
  check_int "no natural loops" 0 (List.length loops);
  check_int "the cycle is irreducible" 1 (List.length irreducible);
  (* and the cost analysis refuses to certify it *)
  let r =
    Verify.verify ~entries:[ "f" ] ~region:(0, 0x1000) ~name:"irr"
      irreducible_prog
  in
  check_bool "irreducible flow is unbounded" true
    (r.Verify.r_bounds.Vcost.b_wcet_cycles = Vcost.Unbounded)

(* --- certified bounds on reports --------------------------------------- *)

let oracle_report ?org name prog =
  Verify.verify ?org ~entries:[ "f" ] ~region:(0, Soundness.region_hi)
    ~lint_privileged:false ~name prog

let test_nested_loop_bounds () =
  let r = oracle_report "nested" nested_prog in
  check_bool "verifies" true (Verify.ok r);
  let b = r.Verify.r_bounds in
  check_int "both loops in the table" 2 (List.length b.Vcost.b_loops);
  check_bool "both loops bounded" true
    (List.for_all (fun l -> l.Vcost.lb_trips <> Vcost.Unbounded) b.Vcost.b_loops);
  match (b.Vcost.b_wcet_cycles, b.Vcost.b_max_instrs, b.Vcost.b_max_stack_bytes) with
  | Vcost.Finite w, Vcost.Finite n, Vcost.Finite s ->
      check_bool "positive wcet" true (w > 0);
      (* 5 outer x 10 inner iterations of a 3-instruction body give a
         floor on both accumulators *)
      check_bool "wcet covers the nest" true (w >= 150);
      check_bool "instr bound covers the nest" true (n >= 150);
      check_int "leaf routine needs no stack" 0 s
  | _ -> Alcotest.fail "nested loop nest should certify finite"

(* Deterministic overflow witnesses: the accumulators multiply trip
   counts that individually fit an int but whose products do not.  A
   single 2^30-trip loop stays finite; nesting two of them (2^60 body
   executions) must saturate to Unbounded — never wrap to a negative
   or small "certified" bound. *)
let counted_loop ~label ~counter ~trips body =
  [
    i (Instr.Mov (reg counter, imm 0));
    Asm.L label;
  ]
  @ body
  @ [
      i (Instr.Alu (Instr.Add, reg counter, imm 1));
      i (Instr.Cmp (reg counter, imm trips));
      i (Instr.Jcc (Instr.Ne, Instr.Label label));
    ]

let test_trip_product_overflow_witness () =
  let huge = 1 lsl 30 in
  let single =
    (Asm.L "f" :: counted_loop ~label:"lp" ~counter:Reg.EAX ~trips:huge [])
    @ [ i Instr.Ret ]
  in
  let r1 = oracle_report "huge1" single in
  (match r1.Verify.r_bounds.Vcost.b_wcet_cycles with
  | Vcost.Finite w -> check_bool "2^30 trips certify finite and positive" true (w >= huge)
  | Vcost.Unbounded -> Alcotest.fail "single 2^30-trip loop should stay finite");
  let nested =
    (Asm.L "f"
    :: counted_loop ~label:"lp_o" ~counter:Reg.EAX ~trips:huge
         (counted_loop ~label:"lp_i" ~counter:Reg.EBX ~trips:huge []))
    @ [ i Instr.Ret ]
  in
  let r2 = oracle_report "huge2" nested in
  let b = r2.Verify.r_bounds in
  (* the trip product exceeds the saturation cap: the only sound
     finite answers are >= 2^60, which the cap forbids — so Unbounded *)
  check_bool "2^60 body executions saturate to Unbounded" true
    (b.Vcost.b_wcet_cycles = Vcost.Unbounded);
  (match b.Vcost.b_max_instrs with
  | Vcost.Unbounded -> ()
  | Vcost.Finite n ->
      check_bool "a finite instr bound must not have wrapped" true (n >= 0));
  (* each loop's own trip bound is still individually finite *)
  check_bool "per-loop trips stay finite" true
    (List.for_all (fun l -> l.Vcost.lb_trips <> Vcost.Unbounded) b.Vcost.b_loops)

let test_saturating_accumulators () =
  (* the raw accumulator primitives the analysis sums cycle bands
     with: closed at the cap, never negative, never wrapping *)
  check_int "sat_add caps" Vcost.cap (Vcost.sat_add (Vcost.cap - 1) (Vcost.cap - 1));
  check_int "sat_add absorbs the cap" Vcost.cap (Vcost.sat_add Vcost.cap Vcost.cap);
  check_int "sat_mul caps 2^31 * 2^31" Vcost.cap (Vcost.sat_mul (1 lsl 31) (1 lsl 31));
  check_int "sat_mul zero annihilates" 0 (Vcost.sat_mul 0 Vcost.cap);
  check_int "sat_mul small stays exact" 12 (Vcost.sat_mul 3 4);
  check_bool "capped value reads back Unbounded" true (Vcost.fin Vcost.cap = Vcost.Unbounded);
  check_bool "below the cap stays Finite" true
    (Vcost.fin (Vcost.cap - 1) = Vcost.Finite (Vcost.cap - 1))

(* --- qcheck: γ-soundness of certified bounds vs concrete charging ------- *)

(* Random verifiable programs (register moves, ALU ops, balanced
   push/pop pairs, small counted loops) are verified for bounds and
   then executed in the oracle world; the concrete run's architectural
   cycles, retired instructions and stack excursion must all sit
   within the certified bounds, under both engines.  This is the cost
   analogue of PR 8's Vdomain/Vtaint membership properties: the
   concretisation of a certified bound must contain every run. *)

type elem =
  | E_mov of Reg.t * int
  | E_alu of Instr.alu * Reg.t * int
  | E_pushpop of Reg.t
  | E_nop
  | E_loop of int (* trip count *)

let render_elem idx = function
  | E_mov (r, n) -> [ i (Instr.Mov (reg r, imm n)) ]
  | E_alu (op, r, n) -> [ i (Instr.Alu (op, reg r, imm n)) ]
  | E_pushpop r -> [ i (Instr.Push (reg r)); i (Instr.Pop (reg r)) ]
  | E_nop -> [ i Instr.Nop ]
  | E_loop trips ->
      counted_loop ~label:(Printf.sprintf "qc%d" idx) ~counter:Reg.ECX ~trips []

let gen_elem =
  let open QCheck.Gen in
  let r = oneofl [ Reg.EAX; Reg.EBX; Reg.EDX; Reg.ESI; Reg.EDI ] in
  let op = oneofl [ Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor ] in
  frequency
    [
      (3, map2 (fun r n -> E_mov (r, n)) r (int_bound 0xFFFF));
      (3, map3 (fun op r n -> E_alu (op, r, n)) op r (int_bound 0xFFFF));
      (2, map (fun r -> E_pushpop r) r);
      (1, return E_nop);
      (1, map (fun t -> E_loop (1 + t)) (int_bound 7));
    ]

let arb_cost_prog =
  QCheck.make
    ~print:(fun es -> Printf.sprintf "%d elements" (List.length es))
    QCheck.Gen.(list_size (int_bound 12) gen_elem)

let hlt_cycles = Cycles.pentium.Cycles.hlt

(* Run [prog] (which must end in Ret from entry [f]) to a halt pad in
   the oracle world and return (arch cycles, retired, stack bytes)
   net of the pad's own hlt. *)
let run_to_pad engine prog =
  let n_instrs =
    List.length (List.filter (function Asm.I _ -> true | Asm.L _ -> false) prog)
  in
  let halt_addr = Soundness.org + (Instr.size * n_instrs) in
  let full = prog @ [ Asm.L "qc$halt"; i Instr.Hlt ] in
  let setup cpu =
    let ds = Cpu.seg_reg cpu Reg.DS in
    let esp = 0x7F00 - 4 in
    Cpu.write_mem cpu ds ~offset:esp ~size:4 halt_addr;
    Cpu.set_reg cpu Reg.ESP esp
  in
  let r = Soundness.measure ~engine ~setup ~entry:"f" full in
  match r.Soundness.x_stop with
  | Cpu.Halted ->
      (r.Soundness.x_cycles - hlt_cycles, r.Soundness.x_retired - 1, r.Soundness.x_stack)
  | _ -> Alcotest.fail "specimen did not reach the halt pad"

let prop_bounds_contain_runs =
  QCheck.Test.make ~count:60
    ~name:"certified bounds contain every concrete run" arb_cost_prog
    (fun elems ->
      let prog =
        (Asm.L "f" :: List.concat (List.mapi render_elem elems)) @ [ i Instr.Ret ]
      in
      let report = oracle_report ~org:Soundness.org "qc" prog in
      if not (Verify.ok report) then
        QCheck.Test.fail_reportf "generated program rejected: %a"
          Verify.pp_report report;
      let b = report.Verify.r_bounds in
      let wcet, instrs, stack =
        match
          (b.Vcost.b_wcet_cycles, b.Vcost.b_max_instrs, b.Vcost.b_max_stack_bytes)
        with
        | Vcost.Finite w, Vcost.Finite n, Vcost.Finite s -> (w, n, s)
        | _ -> QCheck.Test.fail_reportf "loop-free specimen certified unbounded"
      in
      List.for_all
        (fun engine ->
          let cycles, retired, depth = run_to_pad engine prog in
          if cycles > wcet then
            QCheck.Test.fail_reportf "run cost %d cycles above the WCET %d"
              cycles wcet
          else if retired > instrs then
            QCheck.Test.fail_reportf "run retired %d instrs above the bound %d"
              retired instrs
          else if depth > stack then
            QCheck.Test.fail_reportf "run used %d stack bytes above the bound %d"
              depth stack
          else true)
        [ Cpu.Interp; Cpu.Blocks ])

(* --- the oracle catches planted lying bounds ---------------------------- *)

(* A green cost oracle is only meaningful if a lying bound is caught:
   re-run a straight-line specimen under fabricated tiny bounds and
   every engine must report cost violations, while the honestly
   certified bounds stay clean. *)
let test_planted_cost_lie_detected () =
  let prog =
    [
      Asm.L "entry";
      i (Instr.Mov (reg Reg.EAX, imm 7));
      i (Instr.Push (reg Reg.EAX));
      i (Instr.Pop (reg Reg.EBX));
      i Instr.Hlt;
    ]
  in
  let report =
    Verify.verify ~org:Soundness.org ~entries:[ "entry" ]
      ~region:(0, Soundness.region_hi) ~lint_privileged:false ~name:"costlie"
      prog
  in
  let asm = Asm.assemble ~org:Soundness.org prog in
  let static = Soundness.static_table report in
  let elide _ = false in
  List.iter
    (fun engine ->
      let r =
        Soundness.execute ~bounds:report.Verify.r_bounds engine asm ~static
          ~elide ~fuel:100
      in
      check_int "honest bounds: no violations" 0
        (List.length r.Soundness.x_violations))
    [ Cpu.Interp; Cpu.Blocks ];
  let lie =
    {
      Vcost.b_wcet_cycles = Vcost.Finite 1;
      b_best_cycles = 0;
      b_max_stack_bytes = Vcost.Finite 0;
      b_max_instrs = Vcost.Finite 1;
      b_loops = [];
    }
  in
  List.iter
    (fun engine ->
      let r = Soundness.execute ~bounds:lie engine asm ~static ~elide ~fuel:100 in
      check_bool "planted lying bounds detected" true
        (List.exists
           (fun v -> String.length v >= 5 && String.sub v 0 5 = "cost:")
           r.Soundness.x_violations))
    [ Cpu.Interp; Cpu.Blocks ]

(* --- budget-driven watchdog abort --------------------------------------- *)

(* An unbounded extension admitted under Warn must die at the world's
   cycle budget (not the flat administrative limit), the segment must
   be reclaimed, and the world must still audit clean afterward: the
   abort path cleared the extension's gates and descriptors. *)
let test_budget_abort_then_clean_audit () =
  let budget = 2000 in
  let w = Palladium.boot ~budget_policy:Vcost.Warn ~budget_cycles:budget () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"t" in
  let seg = Palladium.create_kernel_segment w in
  ignore (Kernel_ext.insmod seg Ulib.rogue_loop_image);
  (match Kernel_ext.invoke ~task seg ~name:"rogueloop$spin" ~arg:0 with
  | Error (Kernel_ext.Aborted_timeout e) ->
      check_bool "fuel clamped to the budget, not the flat default" true
        (e.Watchdog.wd_limit <= budget
        && e.Watchdog.wd_limit < Pconfig.default_time_limit_cycles)
  | _ -> Alcotest.fail "expected a watchdog timeout abort");
  check_bool "segment dead" true (Kernel_ext.is_dead seg);
  check_int "one abort recorded" 1 (Kernel_ext.aborts seg);
  (match Kernel_ext.invoke ~task seg ~name:"rogueloop$spin" ~arg:0 with
  | Error Kernel_ext.Segment_dead -> ()
  | _ -> Alcotest.fail "dead segment must refuse further invocations");
  let r = Audit.Engine.run (Paudit.capture kernel) in
  check_int "world audits clean after the abort" 0
    (List.length r.Audit.Engine.rp_findings)

(* And the positive side of fuel seeding: a certified-finite module
   under an active budget policy keeps working within its bound. *)
let test_bounded_module_runs_under_budget () =
  let w = Palladium.boot ~budget_policy:Vcost.Reject () in
  let task = Kernel.create_task (Palladium.kernel w) ~name:"t" in
  let seg = Palladium.create_kernel_segment w in
  let km = Kernel_ext.insmod seg Ulib.counter_image in
  (match km.Kernel_ext.m_bounds with
  | Some b -> check_bool "counter certifies finite" true
      (b.Vcost.b_wcet_cycles <> Vcost.Unbounded)
  | None -> Alcotest.fail "bounds missing under an active budget policy");
  match Kernel_ext.invoke ~task seg ~name:"counter$bump" ~arg:0 with
  | Ok (Some (v, _)) -> check_int "bump returns the new count" 1 v
  | _ -> Alcotest.fail "bounded module should run to completion"

(* --- per-world policy ------------------------------------------------ *)

(* Two worlds in one process hold different typed policies: the same
   4-term compiled filter (certified WCET 48 cycles) is rejected where
   the budget is 20 cycles under Reject and loads where verification
   only warns and the budget gate is off. *)
let test_two_worlds_one_process () =
  let terms = Filter_expr.canonical 4 in
  let strict =
    Palladium.boot ~verify_policy:Verify.Reject ~budget_policy:Vcost.Reject
      ~budget_cycles:20 ()
  in
  let lax = Palladium.boot ~verify_policy:Verify.Warn ~budget_policy:Vcost.Off () in
  check_int "strict world's budget" 20 (Kernel.budget_cycles (Palladium.kernel strict));
  check_int "lax world's budget is the watchdog limit"
    Watchdog.default_limit_cycles
    (Kernel.budget_cycles (Palladium.kernel lax));
  (match Native_compile.load (Palladium.create_kernel_segment strict) terms with
  | _ -> Alcotest.fail "over-budget filter admitted under Reject"
  | exception Vcost.Over_budget _ -> ());
  let task = Kernel.create_task (Palladium.kernel lax) ~name:"t" in
  let nf = Native_compile.load (Palladium.create_kernel_segment lax) terms in
  let packet = Packet.to_bytes (Pkt_gen.matching_packet ()) in
  match Native_compile.run nf task ~packet with
  | Ok (v, _) -> check_int "filter matches in the lax world" 1 v
  | Error e -> Alcotest.failf "filter run: %a" Kernel_ext.pp_invoke_error e

(* A world booted without overrides reads the process default when it
   loads, not when it boots. *)
let test_process_default_after_boot () =
  let saved = Vcost.policy () in
  Fun.protect
    ~finally:(fun () -> Pconfig.set_budget_policy saved)
    (fun () ->
      Pconfig.set_budget_policy Vcost.Off;
      let w = Palladium.boot () in
      ignore (Kernel_ext.insmod (Palladium.create_kernel_segment w) Ulib.rogue_loop_image);
      Pconfig.set_budget_policy Vcost.Reject;
      match Kernel_ext.insmod (Palladium.create_kernel_segment w) Ulib.rogue_loop_image with
      | _ -> Alcotest.fail "unbounded module admitted after the default became Reject"
      | exception Vcost.Over_budget _ -> ())

let () =
  Alcotest.run "vcost"
    [
      ( "vcfg",
        [
          Alcotest.test_case "nested natural loops" `Quick test_nested_loops;
          Alcotest.test_case "irreducible cycle" `Quick test_irreducible_cycle;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "nested loop nest certifies finite" `Quick
            test_nested_loop_bounds;
          Alcotest.test_case "trip-product overflow witness" `Quick
            test_trip_product_overflow_witness;
          Alcotest.test_case "saturating accumulators" `Quick
            test_saturating_accumulators;
        ] );
      ( "gamma-soundness",
        [ QCheck_alcotest.to_alcotest prop_bounds_contain_runs ] );
      ( "oracle",
        [
          Alcotest.test_case "planted lying bounds detected" `Quick
            test_planted_cost_lie_detected;
        ] );
      ( "budget",
        [
          Alcotest.test_case "budget abort then clean audit" `Quick
            test_budget_abort_then_clean_audit;
          Alcotest.test_case "bounded module runs under budget" `Quick
            test_bounded_module_runs_under_budget;
        ] );
      ( "world policy",
        [
          Alcotest.test_case "two worlds, one process" `Quick
            test_two_worlds_one_process;
          Alcotest.test_case "process default after boot" `Quick
            test_process_default_after_boot;
        ] );
    ]
