(* Static-vs-dynamic soundness oracle for the load-time verifier.

   The verifier makes four falsifiable claims about a program it
   analyses against a region [0, hi):

     1. a [Proved] access never touches memory at or beyond [hi];
     2. an [Oob] access always faults (the instruction never retires);
     3. an instruction whose SFI guard the verifier would elide
        ([proved_instrs ~trust_stack:true]) never *retires* an access
        at or beyond [hi] — in a deployed world the segment limit is
        what stands behind the elided guard, so "contained or faulted"
        is exactly the property the elision banks on;
     4. when the report carries finite resource bounds ([r_bounds]), a
        fault-free CFG-respecting run retires at most [b_max_instrs]
        instructions, charges at most [b_wcet_cycles] architectural
        cycles (TLB walk surcharges excluded — the static bound prices
        architecture, not the memory system), and never drives ESP more
        than [b_max_stack_bytes] below its entry value.  The claim also
        covers prefixes: a run cut short by fuel has done no more work
        than the whole path the bound covers.

   This module attacks those claims dynamically: it generates random
   (and randomly mutated) [Asm.program]s from the verifier's input
   language, verifies each one, then executes it on the simulated CPU
   in a world whose data and stack segment limits equal the region
   boundary — under both execution engines — while an [on_instr] hook
   mirrors every static access classification against the concrete
   effective addresses.  Any contract breach is minimised by greedy
   [nop] substitution and dumped as a replayable SOUNDNESS_*.json
   artifact (the generator is a pure function of (seed, specimen), so
   the artifact pins everything needed to regenerate the specimen).

   Two classes of specimen are excluded from dynamic checking, and
   counted rather than silently dropped:

   - programs whose report carries Cfg / Stack / Indirect / Privileged
     errors: the verifier's per-index claims are conditioned on
     CFG-respecting execution, which these diagnostics exactly refuse
     to certify (a rejected program never loads, so no claim about it
     reaches a deployed world);
   - runs where the concrete control flow leaves the static CFG at a
     [ret] (a shadow call stack detects the mismatch): possible only
     when a wild store corrupted a return slot the static analysis
     already cannot see through, and [Bounds] errors are not in the
     skip set above. *)

module P = X86.Privilege
module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module PM = X86.Phys_mem
module Pg = X86.Paging
module Seg = X86.Segmentation
module J = Obs.Json

let region_hi = 0x8000

let region = (0, region_hi)

let org = 0x1000

let entry_esp = 0x7F00

let mask32 v = v land 0xFFFF_FFFF

(* --- Oracle world ---------------------------------------------------

   Flat ring-0 machine: code descriptor covers the whole mapped space,
   but the data *and* stack descriptors are limited to [region_hi - 1],
   so "escapes the region" and "faults on the segment limit" coincide
   for every access, whichever default segment it goes through.  The
   stack starts just under the region top; code lives in the separate
   instruction space and cannot be clobbered by data stores. *)

let make_world engine =
  let phys = PM.create () in
  let dir = Pg.create () in
  for vpn = 0 to 31 do
    let pfn = PM.alloc_frame phys in
    Pg.map dir ~vpn ~pfn ~writable:true ~user:true
  done;
  let gdt = DT.gdt () in
  DT.set gdt 1 (Desc.code ~base:0 ~limit:0x1F_FFFF ~dpl:P.R0 ());
  DT.set gdt 2 (Desc.data ~base:0 ~limit:(region_hi - 1) ~dpl:P.R0 ());
  let kcs = Sel.make ~rpl:P.R0 1 in
  let kds = Sel.make ~rpl:P.R0 2 in
  let idt = DT.create ~capacity:16 ~name:"idt" ~is_gdt:false () in
  let tss = Tss.create ~dir () in
  Tss.set_stack tss P.R0 { Tss.stack_selector = kds; stack_pointer = entry_esp };
  let mmu = X86.Mmu.create phys ~dir in
  let code = Code_mem.create () in
  let view = DT.view gdt in
  let cpu = Cpu.create ~mmu ~code ~view ~idt ~tss () in
  ignore (Bexec.attach cpu);
  Cpu.set_engine cpu engine;
  Cpu.force_seg cpu Reg.CS (Seg.load_code view ~new_cpl:P.R0 kcs);
  Cpu.force_seg cpu Reg.SS (Seg.load_stack view ~cpl:P.R0 kds);
  Cpu.force_seg cpu Reg.DS (Seg.load_data view ~cpl:P.R0 kds);
  Cpu.force_seg cpu Reg.ES (Seg.load_data view ~cpl:P.R0 kds);
  cpu

(* --- Specimen generator ---------------------------------------------

   Programs are drawn from the verifier's input language with the
   shapes its domains care about: constant addresses in and out of the
   region, mask-then-index chains, shifted and multiplied indices,
   stack-relative traffic, forward/backward branches (widening), and
   internal calls to small routines (summaries).  Every choice comes
   from a [Random.State] seeded with (seed, specimen), so a specimen
   is reproducible from the two integers alone. *)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* ESP and EBP are excluded from scratch registers: ESP stays a tracked
   stack pointer (hijacked-ESP programs are Stack-error material, which
   the flow gate skips anyway) and EBP only appears as a memory base. *)
let gp = [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ]

let gen_imm st =
  match Random.State.int st 6 with
  | 0 -> Random.State.int st 256
  | 1 -> Random.State.int st region_hi
  | 2 -> region_hi + Random.State.int st region_hi
  | 3 -> (1 lsl (4 + Random.State.int st 9)) - 1
  | 4 -> 0xFFFF_0000 lor Random.State.int st 0x1_0000
  | _ -> Random.State.int st 0x4000

let gen_mask st = (1 lsl (4 + Random.State.int st 9)) - 1

(* [store] avoids ESP-relative destinations: a store the abstract stack
   pointer can place on a return slot is a Stack error (flow gate). *)
let gen_mem st ~store =
  match Random.State.int st 10 with
  | 0 | 1 -> Operand.mem ~disp:(Random.State.int st (region_hi - 8)) ()
  | 2 -> Operand.mem ~disp:(region_hi + Random.State.int st 0x4000) ()
  | 3 | 4 | 5 ->
      Operand.mem ~base:(pick st gp) ~disp:(Random.State.int st 64) ()
  | 6 ->
      Operand.mem ~base:(pick st gp)
        ~index:(pick st gp, pick st [ 1; 2; 4 ])
        ~disp:(Random.State.int st 64) ()
  | 7 -> Operand.mem ~base:Reg.EBP ~disp:(Random.State.int st 64) ()
  | _ ->
      if store then Operand.mem ~base:(pick st gp) ~disp:(Random.State.int st 64) ()
      else Operand.mem ~base:Reg.ESP ~disp:(4 * Random.State.int st 8) ()

let gen_cond st =
  pick st
    [
      Instr.Eq;
      Instr.Ne;
      Instr.Lt;
      Instr.Ge;
      Instr.Below;
      Instr.Above_eq;
    ]

(* One main-body step; multi-item results carry an argument push in
   front of a call.  [labels] is [(name, position)]; backward targets
   are allowed for conditional branches only, so every loop has an
   exit edge and fuel exhaustion stays the worst case. *)
let gen_main_step st ~i ~labels ~subs =
  let r () = pick st gp in
  let i1 x = [ Asm.I x ] in
  match Random.State.int st 18 with
  | 0 | 1 -> i1 (Instr.Mov (Operand.Reg (r ()), Operand.Imm (gen_imm st)))
  | 2 -> i1 (Instr.Mov (Operand.Reg (r ()), Operand.Reg (r ())))
  | 3 ->
      let op = pick st [ Instr.Add; Instr.Sub; Instr.Or; Instr.Xor ] in
      let src =
        if Random.State.bool st then Operand.Reg (r ())
        else Operand.Imm (Random.State.int st 0x2000)
      in
      i1 (Instr.Alu (op, Operand.Reg (r ()), src))
  | 4 -> i1 (Instr.Alu (Instr.And, Operand.Reg (r ()), Operand.Imm (gen_mask st)))
  | 5 ->
      let sh = Random.State.int st 13 in
      i1
        (if Random.State.bool st then Instr.Shl (Operand.Reg (r ()), sh)
         else Instr.Shr (Operand.Reg (r ()), sh))
  | 6 | 7 -> i1 (Instr.Mov (Operand.Reg (r ()), gen_mem st ~store:false))
  | 8 -> i1 (Instr.Mov (gen_mem st ~store:true, Operand.Reg (r ())))
  | 9 ->
      i1
        (if Random.State.bool st then
           Instr.Movb (Operand.Reg (r ()), gen_mem st ~store:false)
         else Instr.Movb (gen_mem st ~store:true, Operand.Reg (r ())))
  | 10 -> (
      match gen_mem st ~store:false with
      | Operand.Mem m -> i1 (Instr.Lea (r (), m))
      | _ -> i1 Instr.Nop)
  | 11 ->
      i1
        (Instr.Push
           (if Random.State.bool st then Operand.Reg (r ())
            else Operand.Imm (gen_imm st)))
  | 12 -> i1 (Instr.Pop (Operand.Reg (r ())))
  | 13 ->
      let src =
        if Random.State.bool st then Operand.Reg (r ())
        else Operand.Imm (Random.State.int st 0x2000)
      in
      i1 (Instr.Cmp (Operand.Reg (r ()), src))
  | 14 -> (
      match labels with
      | [] -> i1 Instr.Nop
      | _ -> i1 (Instr.Jcc (gen_cond st, Instr.Label (fst (pick st labels)))))
  | 15 -> (
      match List.filter (fun (_, p) -> p > i) labels with
      | [] -> i1 Instr.Nop
      | fwd -> i1 (Instr.Jmp (Instr.Label (fst (pick st fwd)))))
  | 16 -> (
      match subs with
      | [] -> i1 Instr.Nop
      | _ ->
          let name, argc = pick st subs in
          let call = Asm.I (Instr.Call (Instr.Label name)) in
          if argc = 1 then
            [ Asm.I (Instr.Push (Operand.Imm (Random.State.int st region_hi))); call ]
          else [ call ])
  | _ ->
      i1
        (match Random.State.int st 4 with
        | 0 -> Instr.Inc (Operand.Reg (r ()))
        | 1 -> Instr.Dec (Operand.Reg (r ()))
        | 2 -> Instr.Neg (Operand.Reg (r ()))
        | _ -> Instr.Imul (r (), Operand.Imm (Random.State.int st 32)))

(* Straight-line routine body: no branches or nested calls, and
   push/pop kept balanced so the closing [ret] sees the entry depth. *)
let gen_sub st ~name ~argc =
  let depth = ref 0 in
  let n = 3 + Random.State.int st 6 in
  let body = ref [] in
  for _ = 1 to n do
    let r = pick st gp in
    let it =
      match Random.State.int st 8 with
      | 0 -> Instr.Mov (Operand.Reg r, Operand.Imm (gen_imm st))
      | 1 -> Instr.Alu (Instr.And, Operand.Reg r, Operand.Imm (gen_mask st))
      | 2 ->
          Instr.Alu
            ( pick st [ Instr.Add; Instr.Sub; Instr.Xor ],
              Operand.Reg r,
              Operand.Reg (pick st gp) )
      | 3 -> Instr.Mov (Operand.Reg r, gen_mem st ~store:false)
      | 4 -> Instr.Mov (gen_mem st ~store:true, Operand.Reg r)
      | 5 ->
          incr depth;
          Instr.Push (Operand.Reg r)
      | 6 when !depth > 0 ->
          decr depth;
          Instr.Pop (Operand.Reg r)
      | _ -> Instr.Shr (Operand.Reg r, Random.State.int st 8)
    in
    body := Asm.I it :: !body
  done;
  let drain = List.init !depth (fun _ -> Asm.I (Instr.Pop (Operand.Reg Reg.EAX))) in
  let ret = if argc = 1 then Instr.Ret_imm 4 else Instr.Ret in
  (Asm.L name :: List.rev !body) @ drain @ [ Asm.I ret ]

let gen_program st =
  let n_subs = Random.State.int st 3 in
  let subs =
    List.init n_subs (fun k -> (Fmt.str "fn%d" k, Random.State.int st 2))
  in
  let n = 6 + Random.State.int st 18 in
  let labels =
    List.init (Random.State.int st 3) (fun j ->
        (Fmt.str "l%d" j, 1 + Random.State.int st n))
  in
  let items = ref [ Asm.L "entry" ] in
  for i = 0 to n - 1 do
    List.iter
      (fun (l, p) -> if p = i then items := Asm.L l :: !items)
      labels;
    List.iter
      (fun it -> items := it :: !items)
      (gen_main_step st ~i ~labels ~subs)
  done;
  List.iter
    (fun (l, p) -> if p >= n then items := Asm.L l :: !items)
    labels;
  items := Asm.I Instr.Hlt :: !items;
  let prog =
    List.rev !items
    @ List.concat_map (fun (name, argc) -> gen_sub st ~name ~argc) subs
  in
  (* Mutation pass: resample one instruction from the main template
     pool in place — the way real verifier bugs get found is a small
     edit to an otherwise coherent program, not uniform noise. *)
  if Random.State.int st 10 < 4 then begin
    let arr = Array.of_list prog in
    let idxs =
      Array.to_list
        (Array.mapi (fun k it -> (k, it)) arr)
      |> List.filter_map (fun (k, it) ->
             match it with Asm.I _ -> Some k | Asm.L _ -> None)
    in
    let k = pick st idxs in
    (match gen_main_step st ~i:0 ~labels ~subs with
    | Asm.I it :: _ -> arr.(k) <- Asm.I it
    | _ -> ());
    Array.to_list arr
  end
  else prog

(* --- Dynamic mirror -------------------------------------------------

   Enumerate the concrete (write, size, ss, ea) accesses of one
   instruction from the live register file, exactly as the verifier's
   abstract transfer records them: explicit [Operand.Mem] operands
   only — implicit push/pop/call/ret traffic through a tracked stack
   pointer is deliberately absent from the classification table (it is
   SS-confined by construction, the same trust the elision leans on
   and the same reason the hardware checks it against SS). *)

let mem_ea cpu (m : Operand.mem) =
  let b = match m.base with Some r -> Cpu.get_reg cpu r | None -> 0 in
  let ix =
    match m.index with Some (r, s) -> Cpu.get_reg cpu r * s | None -> 0
  in
  mask32 (b + ix + m.disp)

let mem_ss (m : Operand.mem) =
  match m.seg_override with
  | Some Reg.SS -> true
  | Some _ -> false
  | None -> (
      match m.base with Some (Reg.ESP | Reg.EBP) -> true | _ -> false)

let concrete_accesses cpu (instr : Instr.t) =
  let of_op ~write ~size = function
    | Operand.Mem m -> [ (write, size, mem_ss m, mem_ea cpu m) ]
    | Operand.Reg _ | Operand.Imm _ | Operand.Sym _ -> []
  in
  let load = of_op ~write:false ~size:4 in
  let store = of_op ~write:true ~size:4 in
  let rmw o = load o @ store o in
  match instr with
  | Instr.Mov (dst, src) -> load src @ store dst
  | Instr.Movb (dst, src) ->
      of_op ~write:false ~size:1 src @ of_op ~write:true ~size:1 dst
  | Instr.Push o | Instr.Mov_to_sreg (_, o) -> load o
  | Instr.Pop o | Instr.Mov_from_sreg (o, _) -> store o
  | Instr.Alu (_, dst, src) -> load src @ rmw dst
  | Instr.Cmp (a, b) | Instr.Test (a, b) -> load a @ load b
  | Instr.Inc o | Instr.Dec o | Instr.Neg o | Instr.Not o
  | Instr.Shl (o, _) | Instr.Shr (o, _) ->
      rmw o
  | Instr.Imul (_, o) | Instr.Call_ind o | Instr.Jmp_ind o | Instr.Lcall_ind o
  | Instr.Wrpkru o ->
      load o
  | Instr.Xchg (a, b) -> rmw a @ rmw b
  | Instr.Lea _ | Instr.Push_sreg _ | Instr.Call _ | Instr.Ret
  | Instr.Ret_imm _ | Instr.Jmp _ | Instr.Jcc _ | Instr.Lcall _ | Instr.Lret
  | Instr.Lret_imm _ | Instr.Int_ _ | Instr.Iret | Instr.Hlt | Instr.Nop
  | Instr.Mark _ | Instr.Kcall _ | Instr.Work _ ->
      []

(* --- Contract execution -------------------------------------------- *)

type exec_result = {
  x_stop : Cpu.stop;
  x_violations : string list;
  x_diverged : bool;  (** concrete flow left the static CFG at a ret *)
  x_cycles : int;  (** architectural cycles retired (walk charges removed) *)
  x_retired : int;  (** instructions retired *)
  x_stack : int;  (** deepest observed ESP excursion below entry, bytes *)
}

let engine_name = function Cpu.Interp -> "interp" | Cpu.Blocks -> "blocks"

(* Architectural cycles of a finished run: the raw cycle delta minus
   the memory-system surcharges the MMU levied for page walks.  The
   static WCET prices the architecture only (the loaders add
   [Vcost.walk_surcharge] separately), so the dynamic side must strip
   walks before the comparison is meaningful.  Walks are read as a
   delta of the sink's page-walk counter: the run is the only world
   executing on this domain between the two reads. *)
let c_walks = Obs.Counters.counter "x86.mmu.page_walks"

let walk_count () = Obs.Counters.value c_walks

let arch_cycles cpu ~cycles0 ~walks0 =
  let p = Cpu.params cpu in
  let walks = walk_count () - walks0 in
  Cpu.cycles cpu - cycles0 - (walks * p.Cycles.tlb_walk * X86.Paging.walk_length)

let execute ?bounds engine (asm : Asm.assembled) ~static ~elide ~fuel =
  let cpu = make_world engine in
  Code_mem.store_program (Cpu.code cpu) ~addr:org asm.Asm.instrs;
  Cpu.set_eip cpu org;
  Cpu.set_reg cpu Reg.ESP entry_esp;
  Cpu.set_halted cpu false;
  let n = Array.length asm.Asm.instrs in
  let violations = ref [] in
  let pending = ref None in
  let checking = ref true in
  let shadow = ref [] in
  let retired = ref 0 in
  let min_esp = ref entry_esp in
  let add m = if not (List.mem m !violations) then violations := m :: !violations in
  (* The shadow-stack probe goes through [Cpu.read_mem], which levies
     the same charges a program read would ([mem_read_extra], TLB
     walks).  Refund the architectural part so the mirror itself stays
     invisible to the cycle ledger the cost oracle reads; the probe's
     walk charges are left in place because [arch_cycles] subtracts
     every counted walk uniformly. *)
  let read_stack_top c =
    let p = Cpu.params c in
    let c0 = Cpu.cycles c and w0 = walk_count () in
    let r =
      match
        Cpu.read_mem c (Cpu.seg_reg c Reg.SS)
          ~offset:(Cpu.get_reg c Reg.ESP) ~size:4
      with
      | v -> Some v
      | exception _ -> None
    in
    let walked =
      (walk_count () - w0)
      * p.Cycles.tlb_walk * X86.Paging.walk_length
    in
    Cpu.charge c (c0 + walked - Cpu.cycles c);
    r
  in
  let hook c =
    incr retired;
    let esp = Cpu.get_reg c Reg.ESP in
    if esp < !min_esp then min_esp := esp;
    if !checking then begin
      (match !pending with
      | Some m ->
          add (m ^ " — the instruction retired without faulting");
          pending := None
      | None -> ());
      let idx = (Cpu.eip c - org) / Instr.size in
      if idx < 0 || idx >= n then checking := false
      else begin
        let instr = asm.Asm.instrs.(idx) in
        (match instr with
        | Instr.Call _ ->
            shadow := mask32 (Cpu.eip c + Instr.size) :: !shadow
        | Instr.Ret | Instr.Ret_imm _ -> (
            match (!shadow, read_stack_top c) with
            | top :: rest, Some v when v = top -> shadow := rest
            | _ -> checking := false)
        | _ -> ());
        if !checking then begin
          let elided = elide idx in
          List.iter
            (fun (write, size, ss, ea) ->
              (match Hashtbl.find_opt static (idx, write, size, ss) with
              | None ->
                  add
                    (Fmt.str
                       "instr %d (%a): executed %s (%d bytes, %s) at %#x is \
                        absent from the classification table"
                       idx Instr.pp instr
                       (if write then "store" else "load")
                       size
                       (if ss then "ss" else "ds")
                       ea)
              | Some Verify.Proved ->
                  if ea + size > region_hi then
                    add
                      (Fmt.str
                         "instr %d (%a): Proved %s of %d bytes reaches %#x, \
                          beyond the region end %#x"
                         idx Instr.pp instr
                         (if write then "store" else "load")
                         size ea region_hi)
              | Some Verify.Oob ->
                  pending :=
                    Some
                      (Fmt.str
                         "instr %d (%a): Oob %s at %#x must fault"
                         idx Instr.pp instr
                         (if write then "store" else "load")
                         ea)
              | Some (Verify.Stack_rel | Verify.Runtime) -> ());
              if elided && ea + size > region_hi && !pending = None then
                pending :=
                  Some
                    (Fmt.str
                       "instr %d (%a): SFI guard elided but the access \
                        reaches %#x, beyond the region end %#x"
                       idx Instr.pp instr ea region_hi))
            (concrete_accesses c instr)
        end
      end
    end
  in
  Cpu.set_on_instr cpu (Some hook);
  Cpu.set_on_fault cpu (Some (fun _ _ -> Cpu.Fault_stop));
  let cycles0 = Cpu.cycles cpu in
  let walks0 = walk_count () in
  let stop = Cpu.run ~max_instrs:fuel cpu in
  (match (!pending, stop) with
  | Some m, (Cpu.Halted | Cpu.Max_instructions) ->
      violations := (m ^ " — the run ended without the mandatory fault") :: !violations
  | _ -> ());
  let cycles = arch_cycles cpu ~cycles0 ~walks0 in
  let stack = max 0 (entry_esp - !min_esp) in
  (* Contract 4 — only meaningful on fault-free CFG-respecting runs: a
     faulted run has paid [fault_transfer], which the bound excludes,
     and a diverged run is off the static CFG the bound quantifies
     over.  [Max_instructions] stays in via the prefix argument. *)
  (match (bounds, stop, !checking) with
  | Some (b : Vcost.bounds), (Cpu.Halted | Cpu.Max_instructions), true ->
      (match b.Vcost.b_wcet_cycles with
      | Vcost.Finite w when cycles > w ->
          add
            (Fmt.str
               "cost: run retired %d architectural cycles, above the \
                certified WCET of %d"
               cycles w)
      | _ -> ());
      (match b.Vcost.b_max_instrs with
      | Vcost.Finite n when !retired > n ->
          add
            (Fmt.str
               "cost: run retired %d instructions, above the certified \
                bound of %d"
               !retired n)
      | _ -> ());
      (match b.Vcost.b_max_stack_bytes with
      | Vcost.Finite s when stack > s ->
          add
            (Fmt.str
               "cost: ESP dipped %d bytes below entry, beyond the \
                certified stack depth of %d"
               stack s)
      | _ -> ())
  | _ -> ());
  {
    x_stop = stop;
    x_violations = List.rev !violations;
    x_diverged = not !checking;
    x_cycles = cycles;
    x_retired = !retired;
    x_stack = stack;
  }

(* --- Verification front end ---------------------------------------- *)

(* [hlt] is the generator's terminator and the oracle world runs at
   ring 0, where it is legal — the privileged lint stays off.  Nothing
   else privileged is in the template pool. *)
let verify_spec ~name prog =
  Verify.verify ~org ~entries:[ "entry" ] ~region ~lint_privileged:false ~name
    prog

(* Dynamic claims are conditioned on CFG-respecting execution; these
   are exactly the checks whose errors withdraw that certificate.
   Bounds and Termination errors stay in: an out-of-region constant
   address or a loop is precisely what the oracle wants to run. *)
let flow_broken (r : Verify.report) =
  List.exists
    (fun (d : Verify.diag) ->
      d.Verify.d_severity = Verify.Error
      &&
      match d.Verify.d_check with
      | Verify.Cfg | Verify.Stack | Verify.Indirect | Verify.Privileged ->
          true
      | Verify.Bounds | Verify.Termination -> false)
    r.Verify.r_diags

let static_table (r : Verify.report) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a : Verify.access) ->
      Hashtbl.replace tbl
        (a.Verify.a_index, a.a_write, a.a_size, a.a_ss)
        a.Verify.a_class)
    r.Verify.r_accesses;
  tbl

let check_once engine ~fuel ~name prog =
  let report = verify_spec ~name prog in
  if flow_broken report then None
  else
    let static = static_table report in
    let elide =
      Verify.proved_instrs ~entries:[ "entry" ] ~trust_stack:true ~region prog
    in
    Some
      (execute ~bounds:report.Verify.r_bounds engine (Asm.assemble ~org prog)
         ~static ~elide ~fuel)

(* --- Standalone measurement -----------------------------------------

   Architectural-cycle measurement of an arbitrary program in the
   oracle world, for the WCET bench: no contract tables, just run it
   and report what it cost.  [setup] runs after ESP/EIP are staged and
   may poke registers or memory (e.g. a packet buffer for a filter);
   [entry] is a label in [prog].  The program must reach a [Hlt]. *)

let measure ?(engine = Cpu.Interp) ?(fuel = 1_000_000)
    ?(setup = fun (_ : Cpu.t) -> ()) ?extern ~entry prog =
  let asm = Asm.assemble ~org ?extern prog in
  let cpu = make_world engine in
  Code_mem.store_program (Cpu.code cpu) ~addr:org asm.Asm.instrs;
  let entry_addr =
    match List.assoc_opt entry asm.Asm.symbols with
    | Some a -> a
    | None -> invalid_arg ("Soundness.measure: no label " ^ entry)
  in
  Cpu.set_eip cpu entry_addr;
  Cpu.set_reg cpu Reg.ESP entry_esp;
  Cpu.set_halted cpu false;
  setup cpu;
  let retired = ref 0 in
  let min_esp = ref (Cpu.get_reg cpu Reg.ESP) in
  let entry_esp' = !min_esp in
  Cpu.set_on_instr cpu
    (Some
       (fun c ->
         incr retired;
         let esp = Cpu.get_reg c Reg.ESP in
         if esp < !min_esp then min_esp := esp));
  Cpu.set_on_fault cpu (Some (fun _ _ -> Cpu.Fault_stop));
  let cycles0 = Cpu.cycles cpu in
  let walks0 = walk_count () in
  let stop = Cpu.run ~max_instrs:fuel cpu in
  {
    x_stop = stop;
    x_violations = [];
    x_diverged = false;
    x_cycles = arch_cycles cpu ~cycles0 ~walks0;
    x_retired = !retired;
    x_stack = max 0 (entry_esp' - !min_esp);
  }

(* --- Minimisation ---------------------------------------------------

   Greedy nop substitution to a fixpoint: replace one instruction at a
   time, keep the replacement whenever the violation still reproduces
   under the same engine.  Labels stay, so branch targets always
   resolve; the loop is quadratic in program length, which tops out
   around forty instructions here. *)

let minimize engine ~fuel ~name prog =
  let reproduces items =
    match check_once engine ~fuel ~name items with
    | Some r -> r.x_violations <> []
    | None | (exception _) -> false
  in
  let arr = Array.of_list prog in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun k it ->
        match it with
        | Asm.L _ | Asm.I Instr.Nop -> ()
        | Asm.I _ ->
            let saved = arr.(k) in
            arr.(k) <- Asm.I Instr.Nop;
            if reproduces (Array.to_list arr) then changed := true
            else arr.(k) <- saved)
      arr
  done;
  Array.to_list arr

(* --- Artifacts and summary ------------------------------------------ *)

let listing prog =
  J.List
    (List.map
       (function
         | Asm.L l -> J.String (l ^ ":")
         | Asm.I i -> J.String (Fmt.str "%a" Instr.pp i))
       prog)

let artifact_name ~seed ~spec = Fmt.str "seed%d-spec%d" seed spec

(* [engine] is "interp", "blocks" or "static" (the elision/table
   cross-check below, which involves no execution). *)
let write_artifact ~dir ~seed ~spec ~engine ~violations ~prog ~minimized =
  let name = artifact_name ~seed ~spec in
  let body =
    [
      ("region", J.Obj [ ("lo", J.Int 0); ("hi", J.Int region_hi) ]);
      ("org", J.Int org);
      ("seed", J.Int seed);
      ("specimen", J.Int spec);
      ("engine", J.String engine);
      ("violations", J.List (List.map (fun m -> J.String m) violations));
      ("program", listing prog);
      ("minimized", listing minimized);
    ]
  in
  Obs.Bench_json.write ~dir ~prefix:"SOUNDNESS_" ~name ~body ()

type summary = {
  s_specimens : int;  (** generated and verified *)
  s_skipped : int;  (** flow-integrity errors: not executed *)
  s_diverged : int;  (** engine runs whose flow left the static CFG *)
  s_runs : int;  (** engine runs with contracts active *)
  s_bounded : int;
      (** fault-free runs checked against finite certified cost bounds *)
  s_violations : int;
  s_artifacts : string list;
  s_instrs : int;  (** static instructions across all specimens *)
  s_accesses : int;
  s_proved : int;
  s_stack_rel : int;
  s_runtime : int;
  s_oob : int;
  s_elided : int;  (** instructions [proved_instrs] would unguard *)
  s_verify_s : float;  (** CPU seconds spent in static analysis *)
  s_spec_verify_us : int list;
      (** per-specimen static-analysis latency, microseconds *)
}

let class_count = Verify.count_class

(* Static cross-check of the elision predicate against the
   classification table: every access of an instruction whose guard
   would be elided must be [Proved] or stack-relative through SS — the
   only two confinements the elision banks on.  In the oracle world
   the segment limit always stands behind an elided access, so a lying
   elision cannot manifest dynamically there; this is the check with
   teeth for contract 3. *)
let elision_mismatches (r : Verify.report) elide =
  List.filter_map
    (fun (a : Verify.access) ->
      if elide a.Verify.a_index then
        match a.Verify.a_class with
        | Verify.Proved -> None
        | Verify.Stack_rel when a.Verify.a_ss -> None
        | c ->
            Some
              (Fmt.str
                 "instr %d: SFI guard elided but its %s of %d bytes is \
                  classified %s"
                 a.Verify.a_index
                 (if a.Verify.a_write then "store" else "load")
                 a.Verify.a_size (Verify.class_name c))
      else None)
    r.Verify.r_accesses

(* [run] drives [count] specimens derived from [seed] through verify
   and both engines, returning the aggregate; each violation is
   minimised and written to [json_dir] (SOUNDNESS_*.json). *)
let run ?(json_dir = ".") ?(fuel = 2000) ?(count = 200) ~seed () =
  let skipped = ref 0
  and diverged = ref 0
  and bounded = ref 0
  and runs = ref 0
  and violations = ref 0
  and artifacts = ref []
  and instrs = ref 0
  and accesses = ref 0
  and proved = ref 0
  and stack_rel = ref 0
  and runtime = ref 0
  and oob = ref 0
  and elided = ref 0
  and verify_s = ref 0.0
  and spec_us = ref [] in
  for spec = 0 to count - 1 do
    let st = Random.State.make [| 0x5eed; seed; spec |] in
    let prog = gen_program st in
    let name = artifact_name ~seed ~spec in
    let t0 = Sys.time () in
    let report = verify_spec ~name prog in
    let elide =
      Verify.proved_instrs ~entries:[ "entry" ] ~trust_stack:true ~region prog
    in
    let dt = Sys.time () -. t0 in
    verify_s := !verify_s +. dt;
    spec_us := max 0 (int_of_float (dt *. 1e6)) :: !spec_us;
    instrs := !instrs + report.Verify.r_instrs;
    accesses := !accesses + List.length report.Verify.r_accesses;
    proved := !proved + class_count report Verify.Proved;
    stack_rel := !stack_rel + class_count report Verify.Stack_rel;
    runtime := !runtime + class_count report Verify.Runtime;
    oob := !oob + class_count report Verify.Oob;
    for i = 0 to report.Verify.r_instrs - 1 do
      if elide i then incr elided
    done;
    (match elision_mismatches report elide with
    | [] -> ()
    | ms ->
        violations := !violations + List.length ms;
        artifacts :=
          write_artifact ~dir:json_dir ~seed ~spec ~engine:"static"
            ~violations:ms ~prog ~minimized:prog
          :: !artifacts);
    if flow_broken report then incr skipped
    else begin
      let static = static_table report in
      let asm = Asm.assemble ~org prog in
      List.iter
        (fun engine ->
          let r =
            execute ~bounds:report.Verify.r_bounds engine asm ~static ~elide
              ~fuel
          in
          if r.x_diverged then incr diverged else incr runs;
          (match (report.Verify.r_bounds.Vcost.b_wcet_cycles, r.x_stop) with
          | Vcost.Finite _, (Cpu.Halted | Cpu.Max_instructions)
            when not r.x_diverged ->
              incr bounded
          | _ -> ());
          if r.x_violations <> [] then begin
            violations := !violations + List.length r.x_violations;
            let minimized = minimize engine ~fuel ~name prog in
            artifacts :=
              write_artifact ~dir:json_dir ~seed ~spec
                ~engine:(engine_name engine) ~violations:r.x_violations ~prog
                ~minimized
              :: !artifacts
          end)
        [ Cpu.Interp; Cpu.Blocks ]
    end
  done;
  {
    s_specimens = count;
    s_skipped = !skipped;
    s_diverged = !diverged;
    s_runs = !runs;
    s_bounded = !bounded;
    s_violations = !violations;
    s_artifacts = List.rev !artifacts;
    s_instrs = !instrs;
    s_accesses = !accesses;
    s_proved = !proved;
    s_stack_rel = !stack_rel;
    s_runtime = !runtime;
    s_oob = !oob;
    s_elided = !elided;
    s_verify_s = !verify_s;
    s_spec_verify_us = List.rev !spec_us;
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>%d specimens (%d skipped on flow errors), %d engine runs, %d \
     diverged, %d cost-bounded@,\
     %d instrs, %d accesses: %d proved / %d stack-rel / %d runtime / %d oob; \
     %d elidable@,\
     verify time %.3fs; violations: %d@]"
    s.s_specimens s.s_skipped s.s_runs s.s_diverged s.s_bounded s.s_instrs
    s.s_accesses s.s_proved s.s_stack_rel s.s_runtime s.s_oob s.s_elided
    s.s_verify_s s.s_violations

let summary_json s =
  J.Obj
    [
      ("specimens", J.Int s.s_specimens);
      ("skipped_flow_errors", J.Int s.s_skipped);
      ("engine_runs", J.Int s.s_runs);
      ("diverged", J.Int s.s_diverged);
      ("cost_bounded_runs", J.Int s.s_bounded);
      ("violations", J.Int s.s_violations);
      ("artifacts", J.List (List.map (fun a -> J.String a) s.s_artifacts));
      ("instructions", J.Int s.s_instrs);
      ( "accesses",
        J.Obj
          [
            ("total", J.Int s.s_accesses);
            ("proved", J.Int s.s_proved);
            ("stack_relative", J.Int s.s_stack_rel);
            ("runtime", J.Int s.s_runtime);
            ("oob", J.Int s.s_oob);
          ] );
      ("elidable_instructions", J.Int s.s_elided);
      ( "proved_pct",
        if s.s_accesses = 0 then J.Null
        else J.Float (100.0 *. float_of_int s.s_proved /. float_of_int s.s_accesses)
      );
      ("verify_seconds", J.Float s.s_verify_s);
    ]
