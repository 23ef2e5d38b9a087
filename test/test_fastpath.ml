(* Differential oracle for the basic-block execution engine: every
   scenario runs twice in fresh, identical worlds — once under the
   interpreter, once under the block engine — and the full observable
   state must be bit-identical: registers, EIP, flags, cycle totals,
   instruction counts, stop condition, marks, the instruction trace
   and every Obs counter delta (faults among them).

   Also pins the interpreter-loop fixes that rode along with the
   engine: the bounded trace ring, retired-instruction fuel semantics
   (a handled fault consumes no [max_instrs] slot), and the
   [Code_mem.store_program] stale-tail fix. *)

module P = X86.Privilege
module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module PM = X86.Phys_mem
module Pg = X86.Paging
module Seg = X86.Segmentation
module F = X86.Fault

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let i x = Asm.I x

let reg r = Operand.Reg r

let imm v = Operand.Imm v

(* --- Machine-level harness ------------------------------------------ *)

type world = {
  cpu : Cpu.t;
  bx : Bexec.t;
  phys : PM.t;
  dir : Pg.dir;
  view : DT.view;
  kcs : Sel.t;
  kds : Sel.t;
  ucs : Sel.t;
  uds : Sel.t;
}

(* Same flat machine as test_machine, but with the block engine
   attached and the engine under test selected. *)
let make_world engine =
  let phys = PM.create () in
  let dir = Pg.create () in
  for vpn = 0 to 31 do
    let pfn = PM.alloc_frame phys in
    Pg.map dir ~vpn ~pfn ~writable:true ~user:true
  done;
  let gdt = DT.gdt () in
  let lim = 0x1F_FFFF in
  DT.set gdt 1 (Desc.code ~base:0 ~limit:lim ~dpl:P.R0 ());
  DT.set gdt 2 (Desc.data ~base:0 ~limit:lim ~dpl:P.R0 ());
  DT.set gdt 3 (Desc.code ~base:0 ~limit:lim ~dpl:P.R3 ());
  DT.set gdt 4 (Desc.data ~base:0 ~limit:lim ~dpl:P.R3 ());
  let kcs = Sel.make ~rpl:P.R0 1 in
  let kds = Sel.make ~rpl:P.R0 2 in
  let ucs = Sel.make ~rpl:P.R3 3 in
  let uds = Sel.make ~rpl:P.R3 4 in
  let idt = DT.create ~capacity:64 ~name:"idt" ~is_gdt:false () in
  let tss = Tss.create ~dir () in
  Tss.set_stack tss P.R0 { Tss.stack_selector = kds; stack_pointer = 0x8000 };
  let mmu = X86.Mmu.create phys ~dir in
  let code = Code_mem.create () in
  let view = DT.view gdt in
  let cpu = Cpu.create ~mmu ~code ~view ~idt ~tss () in
  let bx = Bexec.attach cpu in
  Cpu.set_engine cpu engine;
  { cpu; bx; phys; dir; view; kcs; kds; ucs; uds }

let enter_kernel_mode w ~eip ~esp =
  Cpu.force_seg w.cpu Reg.CS (Seg.load_code w.view ~new_cpl:P.R0 w.kcs);
  Cpu.force_seg w.cpu Reg.SS (Seg.load_stack w.view ~cpl:P.R0 w.kds);
  Cpu.force_seg w.cpu Reg.DS (Seg.load_data w.view ~cpl:P.R0 w.kds);
  Cpu.force_seg w.cpu Reg.ES (Seg.load_data w.view ~cpl:P.R0 w.kds);
  Cpu.set_eip w.cpu eip;
  Cpu.set_reg w.cpu Reg.ESP esp;
  Cpu.set_halted w.cpu false

let enter_user_mode w ~eip ~esp =
  Cpu.force_seg w.cpu Reg.CS (Seg.load_code w.view ~new_cpl:P.R3 w.ucs);
  Cpu.force_seg w.cpu Reg.SS (Seg.load_stack w.view ~cpl:P.R3 w.uds);
  Cpu.force_seg w.cpu Reg.DS (Seg.load_data w.view ~cpl:P.R3 w.uds);
  Cpu.force_seg w.cpu Reg.ES (Seg.load_data w.view ~cpl:P.R3 w.uds);
  Cpu.set_eip w.cpu eip;
  Cpu.set_reg w.cpu Reg.ESP esp;
  Cpu.set_halted w.cpu false

let load_at w ~org prog =
  let asm = Asm.assemble ~org prog in
  Code_mem.store_program (Cpu.code w.cpu) ~addr:org asm.Asm.instrs;
  asm

let org = 0x1000

(* Everything the slow path can be observed to produce. *)
type obs = {
  o_stop : string;
  o_regs : int list;
  o_eip : int;
  o_flags : bool * bool * bool;
  o_cycles : int;
  o_instrs : int;
  o_halted : bool;
  o_marks : (string * int) list;
  o_mark_seq : int; (* every mark executed, not only the buffered window *)
  o_trace : (int * string) list;
  o_counters : (string * int) list;
}

let stop_string = function
  | Cpu.Halted -> "halted"
  | Cpu.Max_instructions -> "max-instructions"
  | Cpu.Fault_abort f -> Fmt.str "fault: %a" F.pp f

(* The [bcache.*] counters are engine meta-counters — they track the
   translation cache itself, which only exists under the block engine
   — so they are excluded from the architectural bit-identity check. *)
let architectural counters =
  List.filter
    (fun (name, _) -> not (String.length name >= 7 && String.sub name 0 7 = "bcache."))
    counters

(* Run [scenario] in a fresh world under a fresh sink; the snapshot at
   the end therefore equals this run's counter deltas. *)
let observe engine scenario =
  let sink = Obs.Sink.create () in
  Obs.Sink.with_sink sink (fun () ->
      let w = make_world engine in
      let stop = scenario w in
      let fl = Cpu.flags w.cpu in
      {
        o_stop = stop_string stop;
        o_regs = List.map (Cpu.get_reg w.cpu) Reg.all;
        o_eip = Cpu.eip w.cpu;
        o_flags = (fl.Cpu.zf, fl.Cpu.cf, fl.Cpu.lt);
        o_cycles = Cpu.cycles w.cpu;
        o_instrs = Cpu.instructions w.cpu;
        o_halted = Cpu.halted w.cpu;
        o_marks = Cpu.marks w.cpu;
        o_mark_seq = Cpu.mark_seq w.cpu;
        o_trace =
          List.map
            (fun (eip, ins) -> (eip, Fmt.str "%a" Instr.pp ins))
            (Cpu.recent_trace ~n:Cpu.trace_capacity w.cpu);
        o_counters = architectural (Obs.Counters.snapshot ());
      })

let check_obs name (a : obs) (b : obs) =
  Alcotest.(check string) (name ^ ": stop") a.o_stop b.o_stop;
  Alcotest.(check (list int)) (name ^ ": regs") a.o_regs b.o_regs;
  check_int (name ^ ": eip") a.o_eip b.o_eip;
  check_bool (name ^ ": halted") a.o_halted b.o_halted;
  check_int (name ^ ": cycles") a.o_cycles b.o_cycles;
  check_int (name ^ ": instructions") a.o_instrs b.o_instrs;
  Alcotest.(check (list (pair string int))) (name ^ ": marks") a.o_marks b.o_marks;
  check_int (name ^ ": marks executed") a.o_mark_seq b.o_mark_seq;
  Alcotest.(check (list (pair int string))) (name ^ ": trace") a.o_trace b.o_trace;
  Alcotest.(check (list (pair string int)))
    (name ^ ": counters") a.o_counters b.o_counters;
  check_bool (name ^ ": flags") true (a.o_flags = b.o_flags)

(* Run the scenario under both engines and demand identical
   observations. *)
let differential name scenario =
  check_obs name (observe Cpu.Interp scenario) (observe Cpu.Blocks scenario)

let run_traced ?max_instrs w =
  Cpu.set_tracing w.cpu true;
  Cpu.run ?max_instrs w.cpu

(* --- Deterministic machine-level differentials ----------------------- *)

let test_alu_straightline () =
  differential "alu" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 40));
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 2));
             i (Instr.Mov (reg Reg.EBX, reg Reg.EAX));
             i (Instr.Alu (Instr.Sub, reg Reg.EBX, imm 12));
             i (Instr.Alu (Instr.And, reg Reg.EBX, imm 0xFF));
             i (Instr.Alu (Instr.Or, reg Reg.EBX, imm 0x100));
             i (Instr.Alu (Instr.Xor, reg Reg.EBX, imm 0x0F0));
             i (Instr.Shl (reg Reg.EBX, 3));
             i (Instr.Shr (reg Reg.EBX, 1));
             i (Instr.Not (reg Reg.ECX));
             i (Instr.Neg (reg Reg.EDX));
             i (Instr.Imul (Reg.EAX, imm 3));
             i (Instr.Inc (reg Reg.ESI));
             i (Instr.Dec (reg Reg.EDI));
             i (Instr.Xchg (reg Reg.EAX, reg Reg.EBX));
             i
               (Instr.Lea
                  ( Reg.EDX,
                    {
                      Operand.base = Some Reg.EAX;
                      index = Some (Reg.EBX, 4);
                      disp = 12;
                      seg_override = None;
                    } ));
             i (Instr.Cmp (reg Reg.EAX, imm 7));
             i (Instr.Test (reg Reg.EBX, imm 0xF0));
             i (Instr.Mark "mid");
             i Instr.Nop;
             i (Instr.Work 17);
             i Instr.Hlt;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      run_traced w)

let test_loop_and_branches () =
  differential "loop" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.ECX, imm 500));
             i (Instr.Mov (reg Reg.EAX, imm 0));
             Asm.L "loop";
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 3));
             i (Instr.Work 5);
             i (Instr.Dec (reg Reg.ECX));
             i (Instr.Jcc (Instr.Ne, Instr.Label "loop"));
             i Instr.Hlt;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      Cpu.run w.cpu)

let test_memory_and_stack () =
  differential "memory" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 0xDEAD));
             i (Instr.Mov (Operand.absolute 0x10000, reg Reg.EAX));
             i (Instr.Mov (reg Reg.EBX, Operand.absolute 0x10000));
             i (Instr.Movb (reg Reg.ECX, Operand.absolute 0x10000));
             i (Instr.Push (reg Reg.EBX));
             i (Instr.Push (imm 77));
             i (Instr.Pop (reg Reg.EDX));
             i (Instr.Pop (Operand.absolute 0x10004));
             i (Instr.Xchg (reg Reg.EAX, Operand.absolute 0x10004));
             i (Instr.Call (Instr.Label "sub"));
             i Instr.Hlt;
             Asm.L "sub";
             i (Instr.Inc (reg Reg.ESI));
             i Instr.Ret;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      run_traced w)

let test_user_mode () =
  differential "user" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 5));
             Asm.L "spin";
             i (Instr.Mov (Operand.absolute 0x12000, reg Reg.EAX));
             i (Instr.Dec (reg Reg.EAX));
             i (Instr.Jcc (Instr.Ne, Instr.Label "spin"));
             i Instr.Hlt;
           ]);
      enter_user_mode w ~eip:org ~esp:0x8000;
      run_traced w)

let test_unhandled_fault () =
  differential "unhandled-fault" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 1));
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 2));
             (* vpn 48 is unmapped: page fault, no handler installed *)
             i (Instr.Mov (Operand.absolute 0x30000, reg Reg.EAX));
             i Instr.Hlt;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      run_traced w)

let test_handled_fault () =
  differential "handled-fault" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 9));
             i (Instr.Mov (Operand.absolute 0x30000, reg Reg.EAX));
             i (Instr.Mov (reg Reg.EBX, Operand.absolute 0x30000));
             i Instr.Hlt;
           ]);
      Cpu.set_on_fault w.cpu
        (Some
           (fun _cpu _fault ->
             (match Pg.lookup w.dir ~vpn:48 with
             | Some _ -> ()
             | None ->
                 let pfn = PM.alloc_frame w.phys in
                 Pg.map w.dir ~vpn:48 ~pfn ~writable:true ~user:true);
             Cpu.Fault_continue));
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      run_traced w)

let test_on_instr_hook_parity () =
  (* The hook must fire once per attempted instruction under both
     engines, and observe fully-committed state each time. *)
  let seen_interp = ref [] and seen_blocks = ref [] in
  let scenario seen w =
    ignore
      (load_at w ~org
         [
           i (Instr.Mov (reg Reg.EAX, imm 1));
           i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 2));
           i (Instr.Work 4);
           i (Instr.Mov (Operand.absolute 0x10000, reg Reg.EAX));
           i Instr.Hlt;
         ]);
    Cpu.set_on_instr w.cpu
      (Some
         (fun cpu ->
           seen := (Cpu.eip cpu, Cpu.cycles cpu, Cpu.instructions cpu) :: !seen));
    enter_kernel_mode w ~eip:org ~esp:0x8000;
    Cpu.run w.cpu
  in
  check_obs "hook"
    (observe Cpu.Interp (scenario seen_interp))
    (observe Cpu.Blocks (scenario seen_blocks));
  check_bool "hook observations identical" true (!seen_interp = !seen_blocks);
  check_int "hook fired per instruction" 5 (List.length !seen_interp)

(* --- Fuel semantics (satellite: Fault_continue consumes no slot) ----- *)

let fuel_world engine =
  let w = make_world engine in
  ignore
    (load_at w ~org
       [
         i (Instr.Mov (reg Reg.EAX, imm 9));
         i (Instr.Mov (Operand.absolute 0x30000, reg Reg.EAX));
         i Instr.Hlt;
       ]);
  Cpu.set_on_fault w.cpu
    (Some
       (fun _cpu _fault ->
         (match Pg.lookup w.dir ~vpn:48 with
         | Some _ -> ()
         | None ->
             let pfn = PM.alloc_frame w.phys in
             Pg.map w.dir ~vpn:48 ~pfn ~writable:true ~user:true);
         Cpu.Fault_continue));
  enter_kernel_mode w ~eip:org ~esp:0x8000;
  w

let test_fuel_handled_fault_free () =
  List.iter
    (fun engine ->
      (* 3 retired instructions (mov, store-after-retry, hlt): a fuel
         budget of exactly 3 must reach the halt — the faulting attempt
         consumes no slot. *)
      let w = fuel_world engine in
      (match Cpu.run ~max_instrs:3 w.cpu with
      | Cpu.Halted -> ()
      | s -> Alcotest.failf "expected halt, got %s" (stop_string s));
      (* One slot short stops on fuel, not on the fault. *)
      let w = fuel_world engine in
      match Cpu.run ~max_instrs:2 w.cpu with
      | Cpu.Max_instructions -> ()
      | s -> Alcotest.failf "expected fuel exhaustion, got %s" (stop_string s))
    [ Cpu.Interp; Cpu.Blocks ]

let test_fuel_mid_block () =
  differential "mid-block fuel" (fun w ->
      ignore
        (load_at w ~org
           (List.init 10 (fun k -> i (Instr.Alu (Instr.Add, reg Reg.EAX, imm k)))
           @ [ i Instr.Hlt ]));
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      run_traced ~max_instrs:5 w)

(* --- Invalidation ---------------------------------------------------- *)

let test_invalidate_store () =
  differential "self-modifying store" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 1));
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 1));
             i Instr.Hlt;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      let s1 = Cpu.run w.cpu in
      (match s1 with Cpu.Halted -> () | s -> Alcotest.fail (stop_string s));
      (* Patch the second instruction; a re-run must see the new code,
         not a stale translation. *)
      Code_mem.store (Cpu.code w.cpu) ~addr:(org + Instr.size)
        (Instr.Alu (Instr.Add, reg Reg.EAX, imm 41));
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      let s2 = Cpu.run w.cpu in
      check_int "patched result" 42 (Cpu.get_reg w.cpu Reg.EAX);
      s2)

let test_invalidate_remove_range () =
  differential "remove_range" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 7));
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 1));
             i Instr.Hlt;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      (match Cpu.run w.cpu with
      | Cpu.Halted -> ()
      | s -> Alcotest.fail (stop_string s));
      (* Remove the tail; re-running must fault at the hole instead of
         replaying a cached block. *)
      Code_mem.remove_range (Cpu.code w.cpu) ~addr:(org + Instr.size)
        ~len:(2 * Instr.size);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      Cpu.run w.cpu)

let test_invalidate_cr3 () =
  differential "cr3 reload" (fun w ->
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 3));
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 4));
             i Instr.Hlt;
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      (match Cpu.run w.cpu with
      | Cpu.Halted -> ()
      | s -> Alcotest.fail (stop_string s));
      (* Switch to a directory that does not map the code pages: the
         cached block must not outlive the address space. *)
      let dir2 = Pg.create () in
      let tss2 = Tss.create ~dir:dir2 () in
      Tss.set_stack tss2 P.R0 { Tss.stack_selector = w.kds; stack_pointer = 0x8000 };
      Cpu.switch_task w.cpu ~view:w.view ~tss:tss2;
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      Cpu.run w.cpu)

(* --- store_program stale-tail regression (satellite) ----------------- *)

let test_store_program_shrink () =
  (* Direct unit check on Code_mem… *)
  let code = Code_mem.create () in
  Code_mem.store_program code ~addr:0x1000
    [| Instr.Nop; Instr.Nop; Instr.Nop; Instr.Nop; Instr.Hlt |];
  Code_mem.store_program code ~addr:0x1000 [| Instr.Nop; Instr.Hlt |];
  check_bool "slot 2 cleared" true (Code_mem.fetch code ~addr:0x1008 = None);
  check_bool "slot 4 cleared" true (Code_mem.fetch code ~addr:0x1010 = None);
  check_bool "slot 0 present" true (Code_mem.fetch code ~addr:0x1000 <> None);
  (* …and the executable consequence, identical under both engines:
     running past the shorter image faults instead of executing the
     longer image's stale tail. *)
  differential "stale tail" (fun w ->
      let long_prog =
        [
          i (Instr.Mov (reg Reg.EAX, imm 1));
          i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 1));
          i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 1));
          i Instr.Hlt;
        ]
      in
      ignore (load_at w ~org long_prog);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      (match Cpu.run w.cpu with
      | Cpu.Halted -> ()
      | s -> Alcotest.fail (stop_string s));
      (* Shorter image over the same base: no Hlt of its own, so
         execution must fault at the cleared tail. *)
      ignore
        (load_at w ~org
           [
             i (Instr.Mov (reg Reg.EAX, imm 5));
             i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 5));
           ]);
      enter_kernel_mode w ~eip:org ~esp:0x8000;
      Cpu.run w.cpu)

(* --- Trace ring (satellite) ------------------------------------------ *)

let test_trace_ring_bounded () =
  let w = make_world Cpu.Blocks in
  ignore
    (load_at w ~org
       [
         i (Instr.Mov (reg Reg.ECX, imm 2000));
         Asm.L "loop";
         i (Instr.Dec (reg Reg.ECX));
         i (Instr.Jcc (Instr.Ne, Instr.Label "loop"));
         i Instr.Hlt;
       ]);
  Cpu.set_tracing w.cpu true;
  enter_kernel_mode w ~eip:org ~esp:0x8000;
  (match Cpu.run w.cpu with
  | Cpu.Halted -> ()
  | s -> Alcotest.fail (stop_string s));
  (* 4001 instructions were traced; the ring keeps the newest. *)
  let all = Cpu.recent_trace ~n:(10 * Cpu.trace_capacity) w.cpu in
  check_int "ring capped" Cpu.trace_capacity (List.length all);
  let last_eip, last = List.nth all (List.length all - 1) in
  check_int "newest is hlt" (org + (3 * Instr.size)) last_eip;
  check_bool "newest is hlt instr" true (last = Instr.Hlt);
  let dflt = Cpu.recent_trace w.cpu in
  check_int "default window" 32 (List.length dflt)

(* --- Randomized differential (qcheck) -------------------------------- *)

let gen_prog =
  let open QCheck.Gen in
  let any_reg = oneofl Reg.all in
  let data_reg = oneofl [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ] in
  let alu_op = oneofl [ Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor ] in
  let cond =
    oneofl
      [
        Instr.Eq;
        Instr.Ne;
        Instr.Lt;
        Instr.Le;
        Instr.Gt;
        Instr.Ge;
        Instr.Below;
        Instr.Below_eq;
        Instr.Above;
        Instr.Above_eq;
      ]
  in
  let value = oneof [ int_bound 0xFF; int_bound 0xFFFF_FFFF; return 0 ] in
  (* mapped, aligned, clear of the code page and the stack top *)
  let mem_addr = map (fun k -> 0x10000 + (4 * k)) (int_bound 0x2FFF) in
  let src = oneof [ map (fun r -> reg r) data_reg; map (fun v -> imm v) value ] in
  let gen_instr ~index ~len =
    let fwd_target =
      map (fun k -> Instr.Abs (org + (Instr.size * (index + 1 + k))))
        (int_bound (len - index - 1))
    in
    frequency
      [
        (6, map2 (fun r s -> Instr.Mov (reg r, s)) data_reg src);
        (4, map3 (fun op r s -> Instr.Alu (op, reg r, s)) alu_op data_reg src);
        (2, map2 (fun a b -> Instr.Cmp (a, b)) src src);
        (2, map2 (fun a b -> Instr.Test (a, b)) src src);
        (1, map (fun r -> Instr.Inc (reg r)) data_reg);
        (1, map (fun r -> Instr.Dec (reg r)) data_reg);
        (1, map (fun r -> Instr.Neg (reg r)) data_reg);
        (1, map (fun r -> Instr.Not (reg r)) data_reg);
        (1, map2 (fun r k -> Instr.Shl (reg r, k)) data_reg (int_bound 40));
        (1, map2 (fun r k -> Instr.Shr (reg r, k)) data_reg (int_bound 40));
        (1, map2 (fun r s -> Instr.Imul (r, s)) data_reg src);
        (1, map2 (fun a b -> Instr.Xchg (reg a, reg b)) data_reg data_reg);
        (1, map (fun r -> Instr.Movb (reg r, Operand.Imm 0x1FF)) data_reg);
        ( 2,
          map2
            (fun r a ->
              Instr.Lea
                ( r,
                  {
                    Operand.base = Some Reg.EBX;
                    index = Some (Reg.ECX, 4);
                    disp = a;
                    seg_override = None;
                  } ))
            data_reg (int_bound 0xFFFF) );
        (3, map2 (fun a r -> Instr.Mov (Operand.absolute a, reg r)) mem_addr any_reg);
        (3, map2 (fun r a -> Instr.Mov (reg r, Operand.absolute a)) data_reg mem_addr);
        (1, map (fun r -> Instr.Push (reg r)) data_reg);
        (1, map (fun r -> Instr.Pop (reg r)) data_reg);
        (1, map (fun n -> Instr.Work (1 + n)) (int_bound 30));
        (1, return Instr.Nop);
        (2, map (fun t -> Instr.Jmp t) fwd_target);
        (3, map2 (fun c t -> Instr.Jcc (c, t)) cond fwd_target);
        (* rare wild store: page fault ends the run, identically *)
        (1, map (fun r -> Instr.Mov (Operand.absolute 0x30000, reg r)) data_reg);
      ]
  in
  int_range 10 40 >>= fun len ->
  let rec go index acc =
    if index >= len then return (List.rev (Instr.Hlt :: acc))
    else gen_instr ~index ~len >>= fun ins -> go (index + 1) (ins :: acc)
  in
  go 0 []

let arb_prog =
  QCheck.make gen_prog ~print:(fun prog ->
      Fmt.str "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Instr.pp) prog)

let prop_random_program_identical =
  QCheck.Test.make ~count:80 ~name:"random programs bit-identical" arb_prog
    (fun prog ->
      let scenario w =
        Code_mem.store_program (Cpu.code w.cpu) ~addr:org (Array.of_list prog);
        enter_kernel_mode w ~eip:org ~esp:0x8000;
        run_traced ~max_instrs:2_000 w
      in
      observe Cpu.Interp scenario = observe Cpu.Blocks scenario)

(* --- Full workloads -------------------------------------------------- *)

let with_engine engine f =
  let saved = Bexec.get_default_engine () in
  Bexec.set_default_engine engine;
  Fun.protect ~finally:(fun () -> Bexec.set_default_engine saved) f

type kobs = {
  k_values : int list;
  k_cycles : int;
  k_instrs : int;
  k_counters : (string * int) list;
}

let observe_kernel engine scenario =
  with_engine engine @@ fun () ->
  let sink = Obs.Sink.create () in
  Obs.Sink.with_sink sink (fun () ->
      let values, cpu = scenario () in
      {
        k_values = values;
        k_cycles = Cpu.cycles cpu;
        k_instrs = Cpu.instructions cpu;
        k_counters = architectural (Obs.Counters.snapshot ());
      })

let check_kobs name a b =
  Alcotest.(check (list int)) (name ^ ": values") a.k_values b.k_values;
  check_int (name ^ ": cycles") a.k_cycles b.k_cycles;
  check_int (name ^ ": instructions") a.k_instrs b.k_instrs;
  Alcotest.(check (list (pair string int)))
    (name ^ ": counters") a.k_counters b.k_counters

let kernel_differential name scenario =
  check_kobs name
    (observe_kernel Cpu.Interp scenario)
    (observe_kernel Cpu.Blocks scenario)

let test_protected_call_workload () =
  kernel_differential "protected calls" (fun () ->
      let w = Palladium.boot () in
      let app = Palladium.create_app w ~name:"app" in
      let ext = Pbackend.load app Ulib.counter_image in
      let prepare = Pbackend.resolve app ext "bump" in
      let call () =
        match Pbackend.call app ~prepare ~arg:0 with
        | Ok (v, _) -> v
        | Error e -> Alcotest.failf "bump failed: %a" Pbackend.pp_call_error e
      in
      ([ call (); call (); call () ], Kernel.cpu (Palladium.kernel w)))

let test_kernel_ext_insmod_abort_reinsmod () =
  kernel_differential "insmod/abort/re-insmod" (fun () ->
      let w = Palladium.boot () in
      let task = Kernel.create_task (Palladium.kernel w) ~name:"init" in
      let invoke seg name arg =
        match Kernel_ext.invoke ~task seg ~name ~arg with
        | Ok (Some (v, _)) -> v
        | Ok None -> Alcotest.fail "service missing"
        | Error e -> Alcotest.failf "invoke failed: %a" Kernel_ext.pp_invoke_error e
      in
      let seg = Palladium.create_kernel_segment w in
      ignore (Kernel_ext.insmod seg Ulib.null_image);
      let v1 = invoke seg "nullext$null_fn" 7 in
      (* Fault the segment dead: its text must be dropped with it. *)
      ignore (Kernel_ext.insmod seg Ulib.rogue_read_image);
      let outside = Kernel_ext.seg_size seg + (16 * 1024 * 1024) in
      (match Kernel_ext.invoke ~task seg ~name:"rogueread$peek" ~arg:outside with
      | Error (Kernel_ext.Aborted_fault _) -> ()
      | _ -> Alcotest.fail "rogue read not confined");
      (* A fresh segment with the same module must work from scratch. *)
      let seg2 = Palladium.create_kernel_segment w in
      ignore (Kernel_ext.insmod seg2 Ulib.null_image);
      let v2 = invoke seg2 "nullext$null_fn" 9 in
      ([ v1; v2 ], Kernel.cpu (Palladium.kernel w)))

let test_abort_clears_segment_text () =
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let seg = Palladium.create_kernel_segment w in
  ignore (Kernel_ext.insmod seg Ulib.null_image);
  let base = Kernel_ext.seg_base seg in
  check_bool "text present before abort" true
    (Code_mem.fetch (Kernel.code kernel) ~addr:base <> None);
  Kernel_ext.abort seg;
  check_bool "text gone after abort" true
    (Code_mem.fetch (Kernel.code kernel) ~addr:base = None)

(* --- Engine plumbing ------------------------------------------------- *)

let test_engine_of_string () =
  check_bool "interp" true (Bexec.engine_of_string "interp" = Some Cpu.Interp);
  check_bool "blocks" true (Bexec.engine_of_string "blocks" = Some Cpu.Blocks);
  check_bool "junk" true (Bexec.engine_of_string "turbo" = None);
  check_bool "round trip" true
    (Bexec.engine_to_string Cpu.Blocks = "blocks"
    && Bexec.engine_to_string Cpu.Interp = "interp")

let test_block_cache_populates () =
  let since = Obs.Counters.snapshot () in
  let w = make_world Cpu.Blocks in
  ignore
    (load_at w ~org
       [
         i (Instr.Mov (reg Reg.ECX, imm 100));
         Asm.L "loop";
         i (Instr.Dec (reg Reg.ECX));
         i (Instr.Jcc (Instr.Ne, Instr.Label "loop"));
         i Instr.Hlt;
       ]);
  enter_kernel_mode w ~eip:org ~esp:0x8000;
  (match Cpu.run w.cpu with
  | Cpu.Halted -> ()
  | s -> Alcotest.fail (stop_string s));
  let d = Obs.Counters.delta ~since in
  let n name = Option.value ~default:0 (List.assoc_opt name d) in
  let hits = n "bcache.hit" + n "bcache.chain" in
  check_bool "blocks cached" true (Bexec.cached_blocks w.bx > 0);
  check_bool "cache hits dominate" true (hits > 90 && n "bcache.miss" > 0)

let () =
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          Alcotest.test_case "alu straight line" `Quick test_alu_straightline;
          Alcotest.test_case "loop and branches" `Quick test_loop_and_branches;
          Alcotest.test_case "memory and stack" `Quick test_memory_and_stack;
          Alcotest.test_case "user mode" `Quick test_user_mode;
          Alcotest.test_case "unhandled fault" `Quick test_unhandled_fault;
          Alcotest.test_case "handled fault" `Quick test_handled_fault;
          Alcotest.test_case "on_instr hook parity" `Quick
            test_on_instr_hook_parity;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "handled fault is fuel-free" `Quick
            test_fuel_handled_fault_free;
          Alcotest.test_case "mid-block fuel boundary" `Quick test_fuel_mid_block;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "self-modifying store" `Quick test_invalidate_store;
          Alcotest.test_case "remove_range" `Quick test_invalidate_remove_range;
          Alcotest.test_case "cr3 reload" `Quick test_invalidate_cr3;
          Alcotest.test_case "store_program shrink" `Quick
            test_store_program_shrink;
          Alcotest.test_case "abort clears segment text" `Quick
            test_abort_clears_segment_text;
        ] );
      ( "trace",
        [ Alcotest.test_case "ring is bounded" `Quick test_trace_ring_bounded ] );
      ("random", [ QCheck_alcotest.to_alcotest prop_random_program_identical ]);
      ( "workloads",
        [
          Alcotest.test_case "protected calls" `Quick test_protected_call_workload;
          Alcotest.test_case "insmod abort re-insmod" `Quick
            test_kernel_ext_insmod_abort_reinsmod;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "engine_of_string" `Quick test_engine_of_string;
          Alcotest.test_case "block cache populates" `Quick
            test_block_cache_populates;
        ] );
    ]
