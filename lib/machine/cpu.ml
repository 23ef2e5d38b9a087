(* The simulated CPU.

   Every memory reference goes through the full x86 protection
   pipeline: segment-limit and segment-privilege checks against the
   hidden descriptor cache of the segment register in use, then the
   page-level user/supervisor and read/write checks through the TLB.
   Control transfers across privilege levels (lcall through call
   gates, lret to an outer ring, int/iret) implement the hardware
   semantics Palladium's stubs rely on, including stack switching
   through the TSS.

   Faults abort the current instruction before any of its state is
   committed (multi-write transfers pre-translate every location),
   so a fault handler may retry the instruction after repairing the
   page tables — this is how demand paging is implemented by the
   kernel substrate. *)

module P = X86.Privilege
module Sel = X86.Selector
module Desc = X86.Descriptor
module Seg = X86.Segmentation
module F = X86.Fault

(* Published event counters: instructions retired, privilege-level
   crossings in each direction, gate transits, segment-register loads
   and faults taken, aggregated across every CPU instance. *)
let c_instructions = Obs.Counters.counter "machine.instructions"

let c_cross_raise = Obs.Counters.counter "machine.crossings.raise"

let c_cross_lower = Obs.Counters.counter "machine.crossings.lower"

let c_gate_transits = Obs.Counters.counter "machine.gate_transits"

let c_sreg_loads = Obs.Counters.counter "machine.sreg_loads"

let c_faults = Obs.Counters.counter "machine.faults"

type flags = { mutable zf : bool; mutable cf : bool; mutable lt : bool }

type fault_action = Fault_continue | Fault_stop

type stop = Halted | Max_instructions | Fault_abort of F.t

type engine = Interp | Blocks

(* Bounded rings for the instruction trace and the phase marks: long
   runs keep the newest entries in constant memory.  A protected call
   stamps 7 marks, so the mark ring holds the last several calls. *)
let trace_capacity = 256

let mark_capacity = 64

type t = {
  mmu : X86.Mmu.t;
  code : Code_mem.t;
  params : Cycles.params;
  regs : int array;
  mutable eip : int;
  mutable cs : Seg.loaded;
  mutable ds : Seg.loaded;
  mutable ss : Seg.loaded;
  mutable es : Seg.loaded;
  flags : flags;
  mutable view : X86.Desc_table.view;
  idt : X86.Desc_table.t;
  mutable tss : Tss.t;
  (* architectural state (the time-stamp and retired-instruction
     counts), not tallies: the cycle model reads and charges them *)
  mutable cycles : int;
  mutable instructions : int;
  mutable halted : bool;
  marks : (string * int) Obs.Ring.t; (* (name, cycle count at the mark) *)
  handlers : (string, t -> unit) Hashtbl.t;
  mutable on_fault : (t -> F.t -> fault_action) option;
  mutable on_instr : (t -> unit) option;
  trace : (int * Instr.t) Obs.Ring.t; (* (eip, instruction) *)
  mutable tracing : bool;
  (* block-engine hooks: [block_dispatch] (installed by Bexec.attach)
     executes cached basic blocks when [engine = Blocks]; [cache_epoch]
     is bumped on CR3 loads (task switches) to invalidate translations;
     [dispatch_consumed] reports how many instructions a dispatch
     retired before raising a fault, so [run]'s fuel accounting stays
     exact across the exception. *)
  mutable engine : engine;
  mutable block_dispatch : (t -> int -> int) option;
  mutable cache_epoch : int;
  mutable dispatch_consumed : int;
  (* periodic pre-instruction tick: [on_tick] fires every [tick_every]
     instructions (the simulated timer interrupt; the kernel hangs the
     watchdog here).  Unlike [on_instr] the countdown lives in the CPU,
     so the block engine can service it with one decrement per slot and
     stay on its fast path between firings. *)
  mutable on_tick : (t -> unit) option;
  mutable tick_every : int;
  mutable tick_left : int;
}

let mask32 v = v land 0xFFFF_FFFF

let s32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(* A descriptor for segment registers that have been invalidated (the
   hardware loads the null selector into DS/ES on a privilege-lowering
   return when they would otherwise be accessible); any use faults. *)
let null_loaded =
  {
    Seg.selector = Sel.null;
    cache = Desc.data ~writable:false ~base:0 ~limit:0 ~dpl:P.R3 ();
  }

let create ~mmu ~code ~view ~idt ~tss ?(params = Cycles.pentium) () =
  {
    mmu;
    code;
    params;
    regs = Array.make Reg.count 0;
    eip = 0;
    cs = null_loaded;
    ds = null_loaded;
    ss = null_loaded;
    es = null_loaded;
    flags = { zf = false; cf = false; lt = false };
    view;
    idt;
    tss;
    cycles = 0;
    instructions = 0;
    halted = false;
    marks = Obs.Ring.create mark_capacity;
    handlers = Hashtbl.create 16;
    on_fault = None;
    on_instr = None;
    trace = Obs.Ring.create trace_capacity;
    tracing = false;
    engine = Interp;
    block_dispatch = None;
    cache_epoch = 0;
    dispatch_consumed = 0;
    on_tick = None;
    tick_every = 1;
    tick_left = 1;
  }

(* --- Periodic tick -------------------------------------------------- *)

let set_on_tick t ~every cb =
  t.on_tick <- cb;
  t.tick_every <- max 1 every;
  t.tick_left <- t.tick_every

(* Getters so a later subsystem can *chain* onto an installed tick
   (wrap the current callback, keep the period) instead of replacing
   it — the telemetry collector hangs off the kernel watchdog tick
   this way. *)
let on_tick t = t.on_tick

let tick_every t = t.tick_every

let reset_tick t = t.tick_left <- t.tick_every

(* Count one instruction against the tick period.  Returns [true] when
   the callback is due (the caller fires it via [tick_fire] after
   committing any pending accounting, so the callback observes exact
   cycle/instruction totals). *)
let tick_step t =
  match t.on_tick with
  | None -> false
  | Some _ ->
      t.tick_left <- t.tick_left - 1;
      if t.tick_left <= 0 then begin
        t.tick_left <- t.tick_every;
        true
      end
      else false

let tick_fire t = match t.on_tick with Some f -> f t | None -> ()

(* Countdown access for the block engine's fast loop: it caches the
   remaining count in a local, decrements per slot without a call, and
   writes the balance back on every exit to the slow path.  [max_int]
   when no tick is installed, so the local countdown simply never
   reaches zero. *)
let tick_left t = match t.on_tick with None -> max_int | Some _ -> t.tick_left

let set_tick_left t n = t.tick_left <- n

let charge t n = t.cycles <- t.cycles + n

let cycles t = t.cycles

let instructions t = t.instructions

let cpl t = Seg.cpl_of_code t.cs

let get_reg t r = t.regs.(Reg.index r)

let regs_array t = t.regs

let set_reg t r v = t.regs.(Reg.index r) <- mask32 v

let eip t = t.eip

let set_eip t v = t.eip <- mask32 v

let halted t = t.halted

let set_halted t v = t.halted <- v

let view t = t.view

let set_view t v = t.view <- v

let tss t = t.tss

let mmu t = t.mmu

let code t = t.code

let params t = t.params

let marks t = Obs.Ring.to_list t.marks

let mark_seq t = Obs.Ring.pushed t.marks

let marks_since t seq = Obs.Ring.since t.marks seq

let register_handler t name f = Hashtbl.replace t.handlers name f

let set_on_fault t f = t.on_fault <- f

let set_on_instr t f = t.on_instr <- f

let set_tracing t v = t.tracing <- v

let tracing t = t.tracing

let trace_push t eip instr = Obs.Ring.push t.trace (eip, instr)

let recent_trace ?(n = 32) t =
  Obs.Ring.since t.trace (Obs.Ring.pushed t.trace - n)

(* --- Segment register access ------------------------------------- *)

let seg_reg t = function
  | Reg.CS -> t.cs
  | Reg.DS -> t.ds
  | Reg.SS -> t.ss
  | Reg.ES -> t.es

(* Force a segment register without any checks: used only by the boot
   code and task-switch paths of the kernel substrate, mirroring how
   real hardware starts in a known state. *)
let force_seg t sr loaded =
  match sr with
  | Reg.CS -> t.cs <- loaded
  | Reg.DS -> t.ds <- loaded
  | Reg.SS -> t.ss <- loaded
  | Reg.ES -> t.es <- loaded

let load_seg t sr selector =
  charge t (t.params.mov_sreg + t.params.mov_sreg_hazard);
  Obs.Counters.incr c_sreg_loads;
  match sr with
  | Reg.CS ->
      F.raise_ (F.Invalid_transfer { reason = "mov to CS is not a valid x86 operation" })
  | Reg.SS -> t.ss <- Seg.load_stack t.view ~cpl:(cpl t) selector
  | Reg.DS -> t.ds <- Seg.load_data t.view ~cpl:(cpl t) selector
  | Reg.ES -> t.es <- Seg.load_data t.view ~cpl:(cpl t) selector

(* --- Memory access through segmentation + paging ------------------ *)

let check_not_null (l : Seg.loaded) =
  if Sel.is_null l.Seg.selector then F.raise_ F.Null_selector

let translate_at t ~cpl ~access linear size =
  let tr = X86.Mmu.translate_range t.mmu ~cpl ~access linear size in
  if tr.X86.Mmu.walked then
    charge t (t.params.tlb_walk * X86.Paging.walk_length);
  tr.X86.Mmu.phys_addr

let translate t ~access linear size = translate_at t ~cpl:(cpl t) ~access linear size

let seg_linear _t (seg : Seg.loaded) ~offset ~size ~access =
  check_not_null seg;
  Seg.linear seg ~offset:(mask32 offset) ~size ~access

let read_mem t seg ~offset ~size =
  let linear = seg_linear t seg ~offset ~size ~access:F.Read in
  let phys = translate t ~access:F.Read linear size in
  charge t t.params.mem_read_extra;
  if size = 1 then X86.Phys_mem.read_u8 (X86.Mmu.phys t.mmu) phys
  else X86.Phys_mem.read_u32 (X86.Mmu.phys t.mmu) phys

let write_mem t seg ~offset ~size v =
  let linear = seg_linear t seg ~offset ~size ~access:F.Write in
  let phys = translate t ~access:F.Write linear size in
  charge t t.params.mem_write_extra;
  if size = 1 then X86.Phys_mem.write_u8 (X86.Mmu.phys t.mmu) phys v
  else X86.Phys_mem.write_u32 (X86.Mmu.phys t.mmu) phys v

(* Default-segment rule: stack-relative addressing uses SS. *)
let seg_for_mem t (m : Operand.mem) =
  match m.Operand.seg_override with
  | Some sr -> seg_reg t sr
  | None -> (
      match m.Operand.base with
      | Some Reg.ESP | Some Reg.EBP -> t.ss
      | Some _ | None -> t.ds)

let addr_of_mem t (m : Operand.mem) =
  let base = match m.Operand.base with Some r -> get_reg t r | None -> 0 in
  let index =
    match m.Operand.index with Some (r, s) -> get_reg t r * s | None -> 0
  in
  mask32 (base + index + m.Operand.disp)

let read_operand ?(size = 4) t = function
  | Operand.Reg r -> get_reg t r
  | Operand.Imm i -> mask32 i
  | Operand.Mem m -> read_mem t (seg_for_mem t m) ~offset:(addr_of_mem t m) ~size
  | Operand.Sym s -> invalid_arg ("Cpu: unresolved symbol operand " ^ s)

let write_operand ?(size = 4) t o v =
  match o with
  | Operand.Reg r ->
      if size = 1 then set_reg t r (get_reg t r land lnot 0xFF lor (v land 0xFF))
      else set_reg t r v
  | Operand.Mem m -> write_mem t (seg_for_mem t m) ~offset:(addr_of_mem t m) ~size v
  | Operand.Imm _ | Operand.Sym _ -> invalid_arg "Cpu: write to immediate"

(* --- Stack operations --------------------------------------------- *)

let push_u32 t v =
  let esp = get_reg t Reg.ESP in
  let new_esp = mask32 (esp - 4) in
  write_mem t t.ss ~offset:new_esp ~size:4 v;
  set_reg t Reg.ESP new_esp

let pop_u32 t =
  let esp = get_reg t Reg.ESP in
  let v = read_mem t t.ss ~offset:esp ~size:4 in
  set_reg t Reg.ESP (esp + 4);
  v

(* Multi-value push with all-or-nothing semantics: translate every
   slot for writing before committing any byte, so a fault leaves the
   stack untouched and the instruction can be retried.  [cpl] is the
   privilege the pushes run at — on a privilege-raising transfer the
   hardware writes the new (inner) stack with the *new* CPL. *)
let push_many ?cpl:cpl_opt t (ss : Seg.loaded) esp values =
  let cpl = match cpl_opt with Some c -> c | None -> cpl t in
  let n = List.length values in
  let slots =
    List.mapi
      (fun i v ->
        let offset = mask32 (esp - (4 * (i + 1))) in
        let linear = seg_linear t ss ~offset ~size:4 ~access:F.Write in
        let phys = translate_at t ~cpl ~access:F.Write linear 4 in
        (phys, v))
      values
  in
  List.iter (fun (phys, v) -> X86.Phys_mem.write_u32 (X86.Mmu.phys t.mmu) phys v) slots;
  mask32 (esp - (4 * n))

(* --- Flags and conditions ------------------------------------------ *)

let set_flags_cmp t a b =
  let a = mask32 a and b = mask32 b in
  t.flags.zf <- a = b;
  t.flags.cf <- a < b;
  t.flags.lt <- s32 a < s32 b

let set_flags_result t r =
  let r = mask32 r in
  t.flags.zf <- r = 0;
  t.flags.cf <- false;
  t.flags.lt <- s32 r < 0

let cond_holds t = function
  | Instr.Eq -> t.flags.zf
  | Instr.Ne -> not t.flags.zf
  | Instr.Lt -> t.flags.lt
  | Instr.Le -> t.flags.lt || t.flags.zf
  | Instr.Gt -> not (t.flags.lt || t.flags.zf)
  | Instr.Ge -> not t.flags.lt
  | Instr.Below -> t.flags.cf
  | Instr.Below_eq -> t.flags.cf || t.flags.zf
  | Instr.Above -> not (t.flags.cf || t.flags.zf)
  | Instr.Above_eq -> not t.flags.cf

(* --- Far control transfers ----------------------------------------- *)

let resolve_gate t selector =
  let d = X86.Desc_table.resolve t.view selector in
  match d.Desc.kind with
  | Desc.Call_gate g -> g
  | Desc.Code _ | Desc.Data _ | Desc.Interrupt_gate _ | Desc.Trap_gate _
  | Desc.Tss_desc _ ->
      F.raise_ (F.Segment_type { selector; expected = "call gate" })

(* lcall through a call gate.  The gate's DPL gates who may call; the
   target code segment's DPL decides whether the transfer raises the
   privilege level (it can never lower it — that is Palladium's whole
   problem, solved by the lret trick). *)
let exec_lcall t sel_encoded return_eip =
  let selector = Sel.decode sel_encoded in
  let gate = resolve_gate t selector in
  let here = cpl t in
  let effective = P.weakest here (Sel.rpl selector) in
  if not (P.is_at_least_as_privileged effective gate.Desc.gate_dpl) then
    F.raise_
      (F.Gate_privilege { selector; cpl = here; gate_dpl = gate.Desc.gate_dpl });
  let target_desc = X86.Desc_table.resolve t.view gate.Desc.target in
  if not (Desc.is_code target_desc) then
    F.raise_ (F.Segment_type { selector = gate.Desc.target; expected = "code segment" });
  let target_dpl = target_desc.Desc.dpl in
  if P.less_privileged target_dpl here then
    F.raise_
      (F.Invalid_transfer
         { reason = "call gate cannot transfer to a less privileged segment" });
  Obs.Counters.incr c_gate_transits;
  if P.equal target_dpl here then begin
    (* Same privilege level: push CS:EIP and jump. *)
    charge t t.params.lcall_gate_same_pl;
    let esp = get_reg t Reg.ESP in
    let esp =
      push_many t t.ss esp [ Sel.encode t.cs.Seg.selector; return_eip ]
    in
    set_reg t Reg.ESP esp;
    t.cs <- Seg.load_code t.view ~new_cpl:here gate.Desc.target;
    t.eip <- gate.Desc.entry
  end
  else begin
    (* Privilege raise: switch to the inner ring's stack from the TSS,
       then push the outer SS:ESP and CS:EIP. *)
    let span_start = t.cycles in
    charge t (t.params.lcall_gate_pl_change + t.params.lcall_hazard);
    Obs.Counters.incr c_cross_raise;
    if Obs.Trace.on () then
      Obs.Trace.emit ~cycles:t.cycles
        (Obs.Trace.Priv_transition
           {
             from_ring = P.to_int here;
             to_ring = P.to_int target_dpl;
             via = "lcall";
           });
    let new_cpl = target_dpl in
    let stack = Tss.stack_for t.tss new_cpl in
    let new_ss = Seg.load_stack t.view ~cpl:new_cpl stack.Tss.stack_selector in
    let old_ss = Sel.encode t.ss.Seg.selector in
    let old_esp = get_reg t Reg.ESP in
    (* Copy [param_count] dwords from the outer to the inner stack. *)
    let values = ref [] in
    for i = gate.Desc.param_count - 1 downto 0 do
      values := read_mem t t.ss ~offset:(old_esp + (4 * i)) ~size:4 :: !values
    done;
    let pushes =
      [ old_ss; old_esp ] @ List.rev !values
      @ [ Sel.encode t.cs.Seg.selector; return_eip ]
    in
    let new_esp = push_many ~cpl:new_cpl t new_ss stack.Tss.stack_pointer pushes in
    t.ss <- new_ss;
    set_reg t Reg.ESP new_esp;
    t.cs <- Seg.load_code t.view ~new_cpl gate.Desc.target;
    t.eip <- gate.Desc.entry;
    if Obs.Span.on () then
      ignore
        (Obs.Span.record "hw.lcall" ~start:span_start ~stop:t.cycles
           ~args:
             [
               ("from_ring", string_of_int (P.to_int here));
               ("to_ring", string_of_int (P.to_int new_cpl));
             ])
  end

(* On a privilege-lowering return the hardware invalidates data
   segment registers that would remain more privileged than the new
   CPL. *)
let invalidate_inaccessible_data_segs t new_cpl =
  let check (l : Seg.loaded) =
    if Sel.is_null l.Seg.selector then l
    else
      let d = l.Seg.cache in
      let keep =
        Desc.is_conforming d
        || not (P.more_privileged d.Desc.dpl new_cpl)
      in
      if keep then l else null_loaded
  in
  t.ds <- check t.ds;
  t.es <- check t.es

(* lret: pops EIP and CS; returning to a numerically greater RPL lowers
   the privilege level and pops the outer SS:ESP too.  Palladium uses
   this with a synthesised activation record to "call down". *)
let exec_lret t extra_pop =
  let here = cpl t in
  let new_eip = pop_u32 t in
  let cs_sel = Sel.decode (pop_u32 t land 0xFFFF) in
  let new_cpl = Sel.rpl cs_sel in
  if P.more_privileged new_cpl here then
    F.raise_
      (F.Invalid_transfer { reason = "far return to a more privileged level" });
  let target_desc = X86.Desc_table.resolve t.view cs_sel in
  if not (Desc.is_code target_desc) then
    F.raise_ (F.Segment_type { selector = cs_sel; expected = "code segment" });
  if
    (not (Desc.is_conforming target_desc))
    && not (P.equal target_desc.Desc.dpl new_cpl)
  then
    F.raise_
      (F.Invalid_transfer
         { reason = "return CS DPL does not match its selector RPL" });
  if P.equal new_cpl here then begin
    charge t t.params.lret_same_pl;
    set_reg t Reg.ESP (get_reg t Reg.ESP + extra_pop);
    t.cs <- Seg.load_code t.view ~new_cpl cs_sel;
    t.eip <- new_eip
  end
  else begin
    let span_start = t.cycles in
    charge t (t.params.lret_pl_change + t.params.lret_hazard);
    Obs.Counters.incr c_cross_lower;
    if Obs.Trace.on () then
      Obs.Trace.emit ~cycles:t.cycles
        (Obs.Trace.Priv_transition
           {
             from_ring = P.to_int here;
             to_ring = P.to_int new_cpl;
             via = "lret";
           });
    let new_esp = pop_u32 t in
    let ss_sel = Sel.decode (pop_u32 t land 0xFFFF) in
    let new_ss = Seg.load_stack t.view ~cpl:new_cpl ss_sel in
    t.cs <- Seg.load_code t.view ~new_cpl cs_sel;
    t.ss <- new_ss;
    set_reg t Reg.ESP (mask32 (new_esp + extra_pop));
    invalidate_inaccessible_data_segs t new_cpl;
    t.eip <- new_eip;
    if Obs.Span.on () then
      ignore
        (Obs.Span.record "hw.lret" ~start:span_start ~stop:t.cycles
           ~args:
             [
               ("from_ring", string_of_int (P.to_int here));
               ("to_ring", string_of_int (P.to_int new_cpl));
             ])
  end

(* int N through the IDT. *)
let exec_int t vector return_eip =
  let selector = Sel.make ~table:Sel.Gdt ~rpl:P.R0 vector in
  let d =
    match X86.Desc_table.get t.idt vector with
    | Some d -> d
    | None -> F.raise_ (F.Descriptor_missing { selector })
  in
  let gate =
    match d.Desc.kind with
    | Desc.Interrupt_gate g | Desc.Trap_gate g -> g
    | Desc.Call_gate _ | Desc.Code _ | Desc.Data _ | Desc.Tss_desc _ ->
        F.raise_ (F.Segment_type { selector; expected = "interrupt gate" })
  in
  let here = cpl t in
  (* Software interrupts are subject to the gate DPL check: this is how
     the kernel keeps users off hardware-only vectors. *)
  if not (P.is_at_least_as_privileged here gate.Desc.gate_dpl) then
    F.raise_ (F.Gate_privilege { selector; cpl = here; gate_dpl = gate.Desc.gate_dpl });
  let target_desc = X86.Desc_table.resolve t.view gate.Desc.target in
  let new_cpl = target_desc.Desc.dpl in
  if P.less_privileged new_cpl here then
    F.raise_ (F.Invalid_transfer { reason = "interrupt to less privileged level" });
  let eflags = 0 (* flags image: not modelled *) in
  Obs.Counters.incr c_gate_transits;
  if P.equal new_cpl here then begin
    charge t t.params.int_gate;
    let esp =
      push_many t t.ss (get_reg t Reg.ESP)
        [ eflags; Sel.encode t.cs.Seg.selector; return_eip ]
    in
    set_reg t Reg.ESP esp;
    t.cs <- Seg.load_code t.view ~new_cpl gate.Desc.target;
    t.eip <- gate.Desc.entry
  end
  else begin
    let span_start = t.cycles in
    charge t t.params.int_gate_pl_change;
    Obs.Counters.incr c_cross_raise;
    if Obs.Trace.on () then
      Obs.Trace.emit ~cycles:t.cycles
        (Obs.Trace.Priv_transition
           {
             from_ring = P.to_int here;
             to_ring = P.to_int new_cpl;
             via = "int";
           });
    let stack = Tss.stack_for t.tss new_cpl in
    let new_ss = Seg.load_stack t.view ~cpl:new_cpl stack.Tss.stack_selector in
    let old_ss = Sel.encode t.ss.Seg.selector in
    let old_esp = get_reg t Reg.ESP in
    let new_esp =
      push_many ~cpl:new_cpl t new_ss stack.Tss.stack_pointer
        [ old_ss; old_esp; eflags; Sel.encode t.cs.Seg.selector; return_eip ]
    in
    t.ss <- new_ss;
    set_reg t Reg.ESP new_esp;
    t.cs <- Seg.load_code t.view ~new_cpl gate.Desc.target;
    t.eip <- gate.Desc.entry;
    if Obs.Span.on () then
      ignore
        (Obs.Span.record "hw.int" ~start:span_start ~stop:t.cycles
           ~args:
             [
               ("from_ring", string_of_int (P.to_int here));
               ("to_ring", string_of_int (P.to_int new_cpl));
             ])
  end

let exec_iret t =
  let here = cpl t in
  let new_eip = pop_u32 t in
  let cs_sel = Sel.decode (pop_u32 t land 0xFFFF) in
  let _eflags = pop_u32 t in
  let new_cpl = Sel.rpl cs_sel in
  if P.more_privileged new_cpl here then
    F.raise_ (F.Invalid_transfer { reason = "iret to a more privileged level" });
  if P.equal new_cpl here then begin
    charge t t.params.iret_base;
    t.cs <- Seg.load_code t.view ~new_cpl cs_sel;
    t.eip <- new_eip
  end
  else begin
    let span_start = t.cycles in
    charge t t.params.iret_pl_change;
    Obs.Counters.incr c_cross_lower;
    if Obs.Trace.on () then
      Obs.Trace.emit ~cycles:t.cycles
        (Obs.Trace.Priv_transition
           {
             from_ring = P.to_int here;
             to_ring = P.to_int new_cpl;
             via = "iret";
           });
    let new_esp = pop_u32 t in
    let ss_sel = Sel.decode (pop_u32 t land 0xFFFF) in
    let new_ss = Seg.load_stack t.view ~cpl:new_cpl ss_sel in
    t.cs <- Seg.load_code t.view ~new_cpl cs_sel;
    t.ss <- new_ss;
    set_reg t Reg.ESP new_esp;
    invalidate_inaccessible_data_segs t new_cpl;
    t.eip <- new_eip;
    if Obs.Span.on () then
      ignore
        (Obs.Span.record "hw.iret" ~start:span_start ~stop:t.cycles
           ~args:
             [
               ("from_ring", string_of_int (P.to_int here));
               ("to_ring", string_of_int (P.to_int new_cpl));
             ])
  end

(* --- Instruction dispatch ------------------------------------------ *)

let fetch t =
  let offset = t.eip in
  let linear =
    seg_linear t t.cs ~offset ~size:Instr.size ~access:F.Execute
  in
  ignore (translate t ~access:F.Execute linear Instr.size);
  match Code_mem.fetch t.code ~addr:linear with
  | Some i -> i
  | None ->
      F.raise_
        (F.Invalid_transfer
           { reason = Printf.sprintf "no code at linear %#x (eip=%#x)" linear offset })

let target_addr = function
  | Instr.Abs a -> a
  | Instr.Label l -> invalid_arg ("Cpu: unresolved branch target " ^ l)

let exec t instr =
  let next = t.eip + Instr.size in
  let fallthrough () = t.eip <- next in
  match instr with
  | Instr.Nop ->
      charge t t.params.alu;
      fallthrough ()
  | Instr.Hlt ->
      charge t t.params.hlt;
      t.halted <- true;
      fallthrough ()
  | Instr.Mark name ->
      Obs.Ring.push t.marks (name, t.cycles);
      fallthrough ()
  | Instr.Work n ->
      charge t n;
      fallthrough ()
  | Instr.Kcall name ->
      (match Hashtbl.find_opt t.handlers name with
      | Some f ->
          t.eip <- next;
          (* handler may redirect control; eip set first *)
          f t
      | None -> invalid_arg ("Cpu: unregistered kernel handler " ^ name))
  | Instr.Mov (d, s) ->
      charge t t.params.mov;
      write_operand t d (read_operand t s);
      fallthrough ()
  | Instr.Movb (d, s) ->
      charge t t.params.mov;
      let v = read_operand ~size:1 t s land 0xFF in
      (match d with
      | Operand.Reg r -> set_reg t r v (* zero-extending load *)
      | Operand.Mem _ -> write_operand ~size:1 t d v
      | Operand.Imm _ | Operand.Sym _ -> invalid_arg "Cpu: movb to immediate");
      fallthrough ()
  | Instr.Lea (r, m) ->
      charge t t.params.lea;
      set_reg t r (addr_of_mem t m);
      fallthrough ()
  | Instr.Push o ->
      charge t t.params.push;
      push_u32 t (read_operand t o);
      fallthrough ()
  | Instr.Pop o ->
      (* commit ESP only after the destination write: a fault on a
         memory destination must leave the stack poppable on retry *)
      charge t t.params.pop;
      let esp = get_reg t Reg.ESP in
      let v = read_mem t t.ss ~offset:esp ~size:4 in
      write_operand t o v;
      set_reg t Reg.ESP (esp + 4);
      fallthrough ()
  | Instr.Push_sreg sr ->
      charge t t.params.push_sreg;
      push_u32 t (Sel.encode (seg_reg t sr).Seg.selector);
      fallthrough ()
  | Instr.Mov_to_sreg (sr, o) ->
      let v = read_operand t o land 0xFFFF in
      load_seg t sr (Sel.decode v);
      fallthrough ()
  | Instr.Mov_from_sreg (o, sr) ->
      charge t t.params.mov;
      write_operand t o (Sel.encode (seg_reg t sr).Seg.selector);
      fallthrough ()
  | Instr.Alu (op, d, s) ->
      charge t t.params.alu;
      let a = read_operand t d and b = read_operand t s in
      let r =
        match op with
        | Instr.Add -> a + b
        | Instr.Sub -> a - b
        | Instr.And -> a land b
        | Instr.Or -> a lor b
        | Instr.Xor -> a lxor b
      in
      (match op with
      | Instr.Add -> t.flags.cf <- a + b > 0xFFFF_FFFF
      | Instr.Sub -> t.flags.cf <- a < b
      | Instr.And | Instr.Or | Instr.Xor -> t.flags.cf <- false);
      t.flags.zf <- mask32 r = 0;
      t.flags.lt <- s32 (mask32 r) < 0;
      write_operand t d (mask32 r);
      fallthrough ()
  | Instr.Cmp (a, b) ->
      charge t t.params.alu;
      set_flags_cmp t (read_operand t a) (read_operand t b);
      fallthrough ()
  | Instr.Test (a, b) ->
      charge t t.params.alu;
      set_flags_result t (read_operand t a land read_operand t b);
      fallthrough ()
  | Instr.Inc o ->
      charge t t.params.alu;
      let r = mask32 (read_operand t o + 1) in
      t.flags.zf <- r = 0;
      t.flags.lt <- s32 r < 0;
      write_operand t o r;
      fallthrough ()
  | Instr.Dec o ->
      charge t t.params.alu;
      let r = mask32 (read_operand t o - 1) in
      t.flags.zf <- r = 0;
      t.flags.lt <- s32 r < 0;
      write_operand t o r;
      fallthrough ()
  | Instr.Neg o ->
      charge t t.params.alu;
      let r = mask32 (-read_operand t o) in
      set_flags_result t r;
      write_operand t o r;
      fallthrough ()
  | Instr.Not o ->
      charge t t.params.alu;
      write_operand t o (mask32 (lnot (read_operand t o)));
      fallthrough ()
  | Instr.Shl (o, n) ->
      charge t t.params.alu;
      let r = mask32 (read_operand t o lsl (n land 31)) in
      set_flags_result t r;
      write_operand t o r;
      fallthrough ()
  | Instr.Shr (o, n) ->
      charge t t.params.alu;
      let r = read_operand t o lsr (n land 31) in
      set_flags_result t r;
      write_operand t o r;
      fallthrough ()
  | Instr.Imul (r, o) ->
      charge t t.params.imul;
      set_reg t r (mask32 (s32 (get_reg t r) * s32 (read_operand t o)));
      fallthrough ()
  | Instr.Xchg (a, b) ->
      (* x86 xchg allows at most one memory operand; two would also
         break fault-retry atomicity *)
      if Operand.is_memory a && Operand.is_memory b then
        invalid_arg "Cpu: xchg with two memory operands";
      charge t
        (if Operand.is_memory a || Operand.is_memory b then t.params.xchg_mem
         else t.params.alu);
      let va = read_operand t a and vb = read_operand t b in
      write_operand t a vb;
      write_operand t b va;
      fallthrough ()
  | Instr.Call tgt ->
      charge t t.params.call_near;
      push_u32 t next;
      t.eip <- target_addr tgt
  | Instr.Call_ind o ->
      charge t t.params.call_near;
      let dest = read_operand t o in
      push_u32 t next;
      t.eip <- dest
  | Instr.Ret ->
      charge t t.params.ret_near;
      t.eip <- pop_u32 t
  | Instr.Ret_imm n ->
      charge t t.params.ret_near;
      let dest = pop_u32 t in
      set_reg t Reg.ESP (get_reg t Reg.ESP + n);
      t.eip <- dest
  | Instr.Jmp tgt ->
      charge t t.params.jmp;
      t.eip <- target_addr tgt
  | Instr.Jmp_ind o ->
      charge t t.params.jmp;
      t.eip <- read_operand t o
  | Instr.Jcc (c, tgt) ->
      if cond_holds t c then begin
        charge t t.params.jcc_taken;
        t.eip <- target_addr tgt
      end
      else begin
        charge t t.params.jcc_not_taken;
        fallthrough ()
      end
  | Instr.Lcall sel -> exec_lcall t sel next
  | Instr.Lcall_ind o ->
      let sel = read_operand t o land 0xFFFF in
      exec_lcall t sel next
  | Instr.Lret -> exec_lret t 0
  | Instr.Lret_imm n -> exec_lret t n
  | Instr.Int_ v -> exec_int t v next
  | Instr.Iret -> exec_iret t
  | Instr.Wrpkru o ->
      (* No bcache invalidation is needed: translated blocks never cache
         a key-dependent decision (instruction fetch is an Execute
         access, exempt from key checks; data accesses consult the live
         PKRU on every TLB hit), and the block engine classifies Wrpkru
         as impure, so it always executes here in the interpreter. *)
      charge t t.params.wrpkru;
      X86.Mmu.set_pkru t.mmu (read_operand t o);
      fallthrough ()

let step t =
  let instr = fetch t in
  if t.tracing then trace_push t t.eip instr;
  t.instructions <- t.instructions + 1;
  Obs.Counters.incr c_instructions;
  exec t instr

(* One execution unit of [run]: a cached basic block when the block
   engine is active (returns the number of instructions retired), else
   one slow-path [step].  [dispatch_consumed] is reset first so that a
   fault raised mid-block still reports how much fuel the completed
   slots consumed. *)
let exec_unit t fuel =
  match t.block_dispatch with
  | Some d when t.engine = Blocks -> d t fuel
  | Some _ | None ->
      step t;
      1

let run ?(max_instrs = 10_000_000) t =
  let rec loop n =
    if t.halted then Halted
    else if n <= 0 then Max_instructions
    else begin
      (match t.on_instr with Some f -> f t | None -> ());
      (* the unit's first instruction counts against the tick period;
         a block dispatch ticks the rest itself *)
      if tick_step t then tick_fire t;
      t.dispatch_consumed <- 0;
      match exec_unit t n with
      | consumed -> loop (n - consumed)
      | exception F.Fault f ->
          (* instructions retired before the fault (mid-block) still
             consume fuel; the faulting instruction itself retired
             nothing and consumes none, so a handled fault no longer
             eats a slot from [max_instrs] — both engines agree on
             the Max_instructions boundary *)
          let consumed = t.dispatch_consumed in
          Obs.Counters.incr c_faults;
          if Obs.Trace.on () then
            Obs.Trace.emit ~cycles:t.cycles
              (Obs.Trace.Fault { vector = F.vector f; detail = F.to_string f });
          let span_start = t.cycles in
          charge t t.params.fault_transfer;
          let action =
            match t.on_fault with
            | None -> Fault_stop
            | Some h -> h t f
          in
          (* one span covers the hardware exception delivery plus the
             handler's software cost (the hook charges it) *)
          if Obs.Span.on () then
            ignore
              (Obs.Span.record "hw.fault" ~start:span_start ~stop:t.cycles
                 ~args:[ ("detail", F.to_string f) ]);
          (match action with
          | Fault_continue -> loop (n - consumed)
          | Fault_stop -> Fault_abort f)
    end
  in
  loop max_instrs

(* --- State capture (used by the kernel to abort extensions) -------- *)

type saved_state = {
  s_regs : int array;
  s_eip : int;
  s_cs : Seg.loaded;
  s_ds : Seg.loaded;
  s_ss : Seg.loaded;
  s_es : Seg.loaded;
  s_halted : bool;
  s_pkru : int;
}

let save_state t =
  {
    s_regs = Array.copy t.regs;
    s_eip = t.eip;
    s_cs = t.cs;
    s_ds = t.ds;
    s_ss = t.ss;
    s_es = t.es;
    s_halted = t.halted;
    s_pkru = X86.Mmu.pkru t.mmu;
  }

let restore_state t s =
  Array.blit s.s_regs 0 t.regs 0 Reg.count;
  t.eip <- s.s_eip;
  t.cs <- s.s_cs;
  t.ds <- s.s_ds;
  t.ss <- s.s_ss;
  t.es <- s.s_es;
  t.halted <- s.s_halted;
  (* An aborted extension may die between the entry stub's WRPKRU and
     the exit stub's; restoring the saved PKRU puts the app's rights
     back, exactly as restoring CS:EIP undoes a partial far call. *)
  X86.Mmu.set_pkru t.mmu s.s_pkru

(* Task switch: reload LDT view, CR3 (flushing the TLB) and the TSS.
   The CR3 load also invalidates cached block translations. *)
let switch_task t ~view ~tss =
  charge t t.params.task_switch;
  t.view <- view;
  t.tss <- tss;
  t.cache_epoch <- t.cache_epoch + 1;
  X86.Mmu.load_cr3 t.mmu (Tss.directory tss)

(* --- Block-engine SPI (used by Bexec) ------------------------------- *)

let engine t = t.engine

let set_engine t e = t.engine <- e

let set_block_dispatch t d = t.block_dispatch <- d

let cache_epoch t = t.cache_epoch

let note_dispatch_progress t n = t.dispatch_consumed <- n

let flags t = t.flags

let on_instr t = t.on_instr

let add_instructions t n =
  t.instructions <- t.instructions + n;
  Obs.Counters.add c_instructions n

(* Full fetch-side page translation of one instruction slot, exactly
   as the slow path's [fetch] performs it (TLB statistics, walk
   charging and page faults included).  The segment-level checks are
   omitted: the block translator already proved them against the same
   hidden descriptor cache, and they are deterministic in it. *)
let fetch_translate t linear =
  ignore (translate t ~access:F.Execute linear Instr.size)

let exec_instr = exec

let pp_state ppf t =
  Fmt.pf ppf "@[<v>eip=%#x cpl=%a cycles=%d@,cs=%a@,ds=%a@,ss=%a@,regs:"
    t.eip P.pp (cpl t) t.cycles Seg.pp t.cs Seg.pp t.ds Seg.pp t.ss;
  List.iter
    (fun r -> Fmt.pf ppf " %a=%#x" Reg.pp r (get_reg t r))
    Reg.all;
  Fmt.pf ppf "@]"
