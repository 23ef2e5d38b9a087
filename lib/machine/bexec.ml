(* Basic-block execution engine.

   [attach] installs a per-CPU dispatcher behind {!Cpu.run}'s
   [exec_unit]: straight-line runs of instructions are pre-decoded once
   into arrays of slots (pure register/immediate work becomes a
   pre-resolved closure, everything else re-enters the interpreter's
   execute stage) and then replayed without re-fetching, re-decoding or
   re-checking the segment limit on every instruction.

   Correctness contract — the fast path must be *bit-identical* to the
   interpreter, observed at every point the slow path can observe
   state: registers, EIP, flags, cycle totals, instruction counts, the
   fault sequence, marks, traces and all Obs counters.  The engine
   keeps this by:

   - translating only under checks the slow path would also pass
     (code segment, limit, a populated code slot), and ending the
     block before anything that can change CS, CPL or the handler
     state (far transfers, sreg loads, Kcall, Hlt);

   - executing non-pure instructions through {!Cpu.exec_instr} — the
     interpreter's own execute stage — after flushing all pending
     accounting, so memory operands, pushes/pops and their faults are
     the slow path by construction;

   - probing the TLB with the counter-free {!X86.Tlb.peek} and
     batching the hit counts ({!X86.Tlb.note_hits}); any miss or
     privilege mismatch falls back to {!Cpu.fetch_translate}, the
     slow path's fetch translation (counters, walk charge, page
     fault), after a flush.  Across a run of consecutive pure slots on
     one page the probe is elided entirely: pure slots cannot insert
     TLB entries (and so cannot evict the code page from the
     direct-mapped TLB), so the interpreter's per-fetch lookup is
     guaranteed to hit and the batch counter alone carries the tally.
     An impure slot or a page boundary forces a real probe again;

   - flushing pending cycles/instructions/TLB-hits before every
     observation point: an [on_instr] hook call, an impure
     instruction, a fault (the [with] handler below) and block end.

   Translation itself touches no counters and no TLB state, so a
   translated-but-never-run block perturbs nothing.

   Invalidation: the {!Bcache} stamps drop every block when the code
   store mutates (generation) or CR3 is reloaded (cache epoch); a CS
   reload is handled per block by recording the exact segment-register
   state ([b_cs], selector plus hidden descriptor cache) the block was
   translated under and re-translating when the current CS differs
   structurally. *)

module Seg = X86.Segmentation
module Desc = X86.Descriptor
module Sel = X86.Selector
module F = X86.Fault
module P = X86.Privilege

let mask32 v = v land 0xFFFF_FFFF

let s32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(* Longest straight-line run pre-decoded into one block. *)
let max_block_slots = 64

type action =
  | Pure of (Cpu.t -> int)
      (* register/immediate-only work; updates state and returns its
         cycle cost for batched charging.  Does NOT touch EIP: between
         pure slots EIP is unobservable, so the engine writes it only
         at observation points and block exits. *)
  | Pure_jump of (Cpu.t -> int)
      (* like [Pure] but sets EIP itself (near branch; always the last
         slot of its block) *)
  | Impure of Instr.t (* flush, then the interpreter's execute stage *)

type slot = {
  s_eip : int;
  s_fall : int; (* fall-through EIP: [s_eip + Instr.size] *)
  s_linear : int;
  s_vpn : int;
  s_probe : bool;
      (* false when the interpreter's fetch lookup for this slot is
         guaranteed to hit: same page as the previous slot and nothing
         in between (an impure slot) that could insert into — and so
         evict from — the direct-mapped TLB *)
  s_instr : Instr.t;
  s_action : action;
}

type block = {
  b_cs : Seg.loaded; (* CS signature the block was translated under *)
  b_user : bool; (* translated at CPL 3: TLB hits need the user bit *)
  b_pure : bool; (* every slot is [Pure]/[Pure_jump]: eligible for chaining *)
  b_slots : slot array;
  mutable b_link : (int * block) option;
      (* memoized successor: (EIP the block exited to, its block).
         Only consulted and only set while chaining pure blocks within
         one dispatch, where the cache stamps provably cannot move; a
         cache invalidation drops the whole block, link included. *)
}

type entry = Block of block | No_block of Seg.loaded

type t = { cache : entry Bcache.t; cpu : Cpu.t }

(* --- Default engine selection -------------------------------------- *)

let default_engine : Cpu.engine Atomic.t =
  Atomic.make
    (match Sys.getenv_opt "PALLADIUM_ENGINE" with
    | Some "interp" -> Cpu.Interp
    | Some _ | None -> Cpu.Blocks)

let set_default_engine e = Atomic.set default_engine e

let get_default_engine () = Atomic.get default_engine

let engine_of_string = function
  | "interp" -> Some Cpu.Interp
  | "blocks" -> Some Cpu.Blocks
  | _ -> None

let engine_to_string = function Cpu.Interp -> "interp" | Cpu.Blocks -> "blocks"

(* --- Translation --------------------------------------------------- *)

(* Operand reader for pure slots, over a captured register file;
   [None] forces the slow path. *)
let reader regs = function
  | Operand.Reg r ->
      let i = Reg.index r in
      Some (fun () -> Array.unsafe_get regs i)
  | Operand.Imm i ->
      let v = mask32 i in
      Some (fun () -> v)
  | Operand.Mem _ | Operand.Sym _ -> None

(* Specialized condition test over a captured flags record; mirrors
   {!Cpu.cond_holds} arm for arm. *)
let cond_test (fl : Cpu.flags) = function
  | Instr.Eq -> fun () -> fl.Cpu.zf
  | Instr.Ne -> fun () -> not fl.Cpu.zf
  | Instr.Lt -> fun () -> fl.Cpu.lt
  | Instr.Le -> fun () -> fl.Cpu.lt || fl.Cpu.zf
  | Instr.Gt -> fun () -> not (fl.Cpu.lt || fl.Cpu.zf)
  | Instr.Ge -> fun () -> not fl.Cpu.lt
  | Instr.Below -> fun () -> fl.Cpu.cf
  | Instr.Below_eq -> fun () -> fl.Cpu.cf || fl.Cpu.zf
  | Instr.Above -> fun () -> not (fl.Cpu.cf || fl.Cpu.zf)
  | Instr.Above_eq -> fun () -> not fl.Cpu.cf

(* Build the pre-resolved closure for an instruction whose semantics
   involve only registers, immediates and flags.  Each arm mirrors the
   matching arm of the interpreter's [exec] exactly — same value
   masking, same flag updates, same cycle constant — over the CPU's
   captured register file and flags record (see {!Cpu.regs_array}),
   so a slot replay is array reads and writes, not calls.  Plain
   [Pure] closures leave EIP alone (the engine maintains it);
   [Pure_jump] closures (near branches) set it to the target or
   fall-through. *)
let pure (p : Cycles.params) ~regs ~(fl : Cpu.flags) instr ~next =
  match instr with
  | Instr.Nop ->
      let c = p.Cycles.alu in
      Some (Pure (fun _ -> c))
  | Instr.Work n -> Some (Pure (fun _ -> n))
  | Instr.Mov (Operand.Reg d, s) -> (
      match reader regs s with
      | None -> None
      | Some rs ->
          let di = Reg.index d in
          let c = p.Cycles.mov in
          Some
            (Pure
               (fun _ ->
                 Array.unsafe_set regs di (rs ());
                 c)))
  | Instr.Movb (Operand.Reg d, s) -> (
      match reader regs s with
      | None -> None
      | Some rs ->
          let di = Reg.index d in
          let c = p.Cycles.mov in
          Some
            (Pure
               (fun _ ->
                 Array.unsafe_set regs di (rs () land 0xFF);
                 c)))
  | Instr.Lea (d, m) ->
      let c = p.Cycles.lea in
      let di = Reg.index d in
      let base = Option.map Reg.index m.Operand.base
      and index =
        Option.map (fun (r, sc) -> (Reg.index r, sc)) m.Operand.index
      and disp = m.Operand.disp in
      Some
        (Pure
           (fun _ ->
             let b =
               match base with Some i -> Array.unsafe_get regs i | None -> 0
             in
             let i =
               match index with
               | Some (i, sc) -> Array.unsafe_get regs i * sc
               | None -> 0
             in
             Array.unsafe_set regs di (mask32 (b + i + disp));
             c))
  | Instr.Mov_from_sreg (Operand.Reg d, sr) ->
      let di = Reg.index d in
      let c = p.Cycles.mov in
      Some
        (Pure
           (fun t ->
             Array.unsafe_set regs di
               (Sel.encode (Cpu.seg_reg t sr).Seg.selector);
             c))
  | Instr.Alu (op, Operand.Reg d, s) -> (
      match reader regs s with
      | None -> None
      | Some rs ->
          let di = Reg.index d in
          let c = p.Cycles.alu in
          Some
            (Pure
               (fun _ ->
                 let a = Array.unsafe_get regs di and b = rs () in
                 let r =
                   match op with
                   | Instr.Add -> a + b
                   | Instr.Sub -> a - b
                   | Instr.And -> a land b
                   | Instr.Or -> a lor b
                   | Instr.Xor -> a lxor b
                 in
                 (match op with
                 | Instr.Add -> fl.Cpu.cf <- a + b > 0xFFFF_FFFF
                 | Instr.Sub -> fl.Cpu.cf <- a < b
                 | Instr.And | Instr.Or | Instr.Xor -> fl.Cpu.cf <- false);
                 let rm = mask32 r in
                 fl.Cpu.zf <- rm = 0;
                 fl.Cpu.lt <- s32 rm < 0;
                 Array.unsafe_set regs di rm;
                 c)))
  | Instr.Cmp (a, b) -> (
      match (reader regs a, reader regs b) with
      | Some ra, Some rb ->
          let c = p.Cycles.alu in
          Some
            (Pure
               (fun _ ->
                 let x = mask32 (ra ()) and y = mask32 (rb ()) in
                 fl.Cpu.zf <- x = y;
                 fl.Cpu.cf <- x < y;
                 fl.Cpu.lt <- s32 x < s32 y;
                 c))
      | _ -> None)
  | Instr.Test (a, b) -> (
      match (reader regs a, reader regs b) with
      | Some ra, Some rb ->
          let c = p.Cycles.alu in
          Some
            (Pure
               (fun _ ->
                 let r = mask32 (ra () land rb ()) in
                 fl.Cpu.zf <- r = 0;
                 fl.Cpu.cf <- false;
                 fl.Cpu.lt <- s32 r < 0;
                 c))
      | _ -> None)
  | Instr.Inc (Operand.Reg d) ->
      let di = Reg.index d in
      let c = p.Cycles.alu in
      Some
        (Pure
           (fun _ ->
             let r = mask32 (Array.unsafe_get regs di + 1) in
             fl.Cpu.zf <- r = 0;
             fl.Cpu.lt <- s32 r < 0;
             Array.unsafe_set regs di r;
             c))
  | Instr.Dec (Operand.Reg d) ->
      let di = Reg.index d in
      let c = p.Cycles.alu in
      Some
        (Pure
           (fun _ ->
             let r = mask32 (Array.unsafe_get regs di - 1) in
             fl.Cpu.zf <- r = 0;
             fl.Cpu.lt <- s32 r < 0;
             Array.unsafe_set regs di r;
             c))
  | Instr.Neg (Operand.Reg d) ->
      let di = Reg.index d in
      let c = p.Cycles.alu in
      Some
        (Pure
           (fun _ ->
             let r = mask32 (-Array.unsafe_get regs di) in
             fl.Cpu.zf <- r = 0;
             fl.Cpu.cf <- false;
             fl.Cpu.lt <- s32 r < 0;
             Array.unsafe_set regs di r;
             c))
  | Instr.Not (Operand.Reg d) ->
      let di = Reg.index d in
      let c = p.Cycles.alu in
      Some
        (Pure
           (fun _ ->
             Array.unsafe_set regs di (mask32 (lnot (Array.unsafe_get regs di)));
             c))
  | Instr.Shl (Operand.Reg d, n) ->
      let di = Reg.index d in
      let c = p.Cycles.alu in
      let sh = n land 31 in
      Some
        (Pure
           (fun _ ->
             let r = mask32 (Array.unsafe_get regs di lsl sh) in
             fl.Cpu.zf <- r = 0;
             fl.Cpu.cf <- false;
             fl.Cpu.lt <- s32 r < 0;
             Array.unsafe_set regs di r;
             c))
  | Instr.Shr (Operand.Reg d, n) ->
      let di = Reg.index d in
      let c = p.Cycles.alu in
      let sh = n land 31 in
      Some
        (Pure
           (fun _ ->
             let r = Array.unsafe_get regs di lsr sh in
             fl.Cpu.zf <- r = 0;
             fl.Cpu.cf <- false;
             fl.Cpu.lt <- s32 r < 0;
             Array.unsafe_set regs di r;
             c))
  | Instr.Imul (d, s) -> (
      match reader regs s with
      | None -> None
      | Some rs ->
          let di = Reg.index d in
          let c = p.Cycles.imul in
          Some
            (Pure
               (fun _ ->
                 Array.unsafe_set regs di
                   (mask32 (s32 (Array.unsafe_get regs di) * s32 (rs ())));
                 c)))
  | Instr.Xchg (Operand.Reg a, Operand.Reg b) ->
      let ai = Reg.index a and bi = Reg.index b in
      let c = p.Cycles.alu in
      Some
        (Pure
           (fun _ ->
             let va = Array.unsafe_get regs ai
             and vb = Array.unsafe_get regs bi in
             Array.unsafe_set regs ai vb;
             Array.unsafe_set regs bi va;
             c))
  | Instr.Jmp (Instr.Abs a) ->
      let c = p.Cycles.jmp in
      Some
        (Pure_jump
           (fun t ->
             Cpu.set_eip t a;
             c))
  | Instr.Jcc (cond, Instr.Abs a) ->
      let taken = p.Cycles.jcc_taken and not_taken = p.Cycles.jcc_not_taken in
      let test = cond_test fl cond in
      Some
        (Pure_jump
           (fun t ->
             if test () then begin
               Cpu.set_eip t a;
               taken
             end
             else begin
               Cpu.set_eip t next;
               not_taken
             end))
  | _ -> None

type cls =
  | End_before (* block ends; instruction itself runs on the slow path *)
  | Take of action * bool (* bool: last slot of the block *)

let classify p ~regs ~fl instr ~next =
  match instr with
  (* Privilege transitions, far transfers, segment-register loads,
     kernel upcalls and halt all run outside blocks: they can change
     CS/CPL, switch tasks or re-enter [run]'s control flow. *)
  | Instr.Kcall _ | Instr.Mov_to_sreg _ | Instr.Lcall _ | Instr.Lcall_ind _
  | Instr.Lret | Instr.Lret_imm _ | Instr.Int_ _ | Instr.Iret | Instr.Hlt ->
      End_before
  (* Near transfers end the block but execute inside it. *)
  | Instr.Call _ | Instr.Call_ind _ | Instr.Ret | Instr.Ret_imm _
  | Instr.Jmp _ | Instr.Jmp_ind _ | Instr.Jcc _ -> (
      match pure p ~regs ~fl instr ~next with
      | Some a -> Take (a, true)
      | None -> Take (Impure instr, true))
  | _ -> (
      match pure p ~regs ~fl instr ~next with
      | Some a -> Take (a, false)
      | None -> Take (Impure instr, false))

(* Pre-decode the straight-line run starting at [eip0] under code
   segment [cs].  Performs only checks the slow path would also pass
   and touches neither architectural counters nor the TLB, so
   pre-translating a block that never runs is architecturally
   unobservable.  Returns [None] when not even one slot can be
   translated. *)
let translate_block_raw cpu (cs : Seg.loaded) eip0 =
  if Sel.is_null cs.Seg.selector || not (Desc.is_code cs.Seg.cache) then None
  else
    let p = Cpu.params cpu in
    let code = Cpu.code cpu in
    let regs = Cpu.regs_array cpu and fl = Cpu.flags cpu in
    let base = cs.Seg.cache.Desc.base in
    let user = P.equal (Seg.cpl_of_code cs) P.R3 in
    (* [prev]: the previous slot's (vpn, was-impure), for probe
       elision.  The first slot always probes. *)
    let rec collect acc prev eip count =
      if count >= max_block_slots then List.rev acc
      else
        let offset = mask32 eip in
        if not (Desc.offset_valid cs.Seg.cache ~offset ~size:Instr.size) then
          List.rev acc
        else
          let linear = base + offset in
          match Code_mem.fetch code ~addr:linear with
          | None -> List.rev acc
          | Some instr -> (
              let next = offset + Instr.size in
              match classify p ~regs ~fl instr ~next with
              | End_before -> List.rev acc
              | Take (action, last) ->
                  let vpn = X86.Paging.vpn_of_linear linear in
                  let probe =
                    match prev with
                    | None -> true
                    | Some (pvpn, pimpure) -> pimpure || pvpn <> vpn
                  in
                  let slot =
                    {
                      s_eip = offset;
                      s_fall = next;
                      s_linear = linear;
                      s_vpn = vpn;
                      s_probe = probe;
                      s_instr = instr;
                      s_action = action;
                    }
                  in
                  if last then List.rev (slot :: acc)
                  else
                    let impure =
                      match action with
                      | Impure _ -> true
                      | Pure _ | Pure_jump _ -> false
                    in
                    collect (slot :: acc)
                      (Some (vpn, impure))
                      next (count + 1))
    in
    match collect [] None eip0 0 with
    | [] -> None
    | slots ->
        let pure_only =
          List.for_all
            (fun s ->
              match s.s_action with
              | Pure _ | Pure_jump _ -> true
              | Impure _ -> false)
            slots
        in
        Some
          {
            b_cs = cs;
            b_user = user;
            b_pure = pure_only;
            b_slots = Array.of_list slots;
            b_link = None;
          }

(* Translation is meta-work: simulated time does not advance, so the
   span is zero-duration at the current cycle stamp — what it buys is
   the *when* and *how many* of translations on the trace timeline.
   No-op unless span recording is enabled. *)
let translate_block cpu (cs : Seg.loaded) eip0 =
  if not (Obs.Span.on ()) then translate_block_raw cpu cs eip0
  else begin
    let at = Cpu.cycles cpu in
    let r = translate_block_raw cpu cs eip0 in
    ignore
      (Obs.Span.record "bexec.translate"
         ~args:
           [
             ("eip", Printf.sprintf "0x%x" (mask32 eip0));
             ("translated", match r with Some _ -> "yes" | None -> "no");
           ]
         ~start:at ~stop:(Cpu.cycles cpu));
    r
  end

(* --- Execution ----------------------------------------------------- *)

(* Replay [b0] on [t], retiring at most [fuel] instructions, then
   chain straight into successor blocks without returning to [run]'s
   dispatch loop, as long as that is provably unobservable: the
   finished block was all-pure (no stores, so the code generation
   cannot have moved; no CR3 load; no CS change), it ran to completion
   with fuel to spare, and nothing watches individual slots (no
   tracing, no [on_instr] hook — [run] invokes the hook once per
   dispatch, so chaining past it would skip calls).  The successor
   resolved through the cache is memoized on the block ([b_link]),
   turning steady-state loops into pointer-chasing rather than a
   hashtable probe per iteration.

   Cycles, instruction counts and TLB hit statistics accumulate in
   locals — held across chained blocks, since pure slots cannot
   observe them and the chain step reads only EIP and the cache — and
   flush at every real observation point (a hook, a tick firing, an
   impure slot, a probe miss, a fault, dispatch end), so any
   interleaved slow-path work sees exactly the state the interpreter
   would have produced. *)
let exec_chain bx t (cs : Seg.loaded) b0 fuel =
  let tlb = X86.Mmu.tlb (Cpu.mmu t) in
  let tracing = Cpu.tracing t in
  let hook = Cpu.on_instr t in
  let observed = tracing || hook <> None in
  let pending_cycles = ref 0 in
  let pending_instrs = ref 0 in
  let pending_hits = ref 0 in
  let link_hits = ref 0 in
  let consumed = ref 0 in
  let flush () =
    if !pending_cycles <> 0 then begin
      Cpu.charge t !pending_cycles;
      pending_cycles := 0
    end;
    if !pending_instrs <> 0 then begin
      Cpu.add_instructions t !pending_instrs;
      pending_instrs := 0
    end;
    if !pending_hits <> 0 then begin
      X86.Tlb.note_hits !pending_hits;
      pending_hits := 0
    end
  in
  (* Local tick countdown for the fast loop: one decrement per slot
     instead of a call into [Cpu]; the balance is written back on
     every exit to the slow path.  The observed loop keeps the
     canonical {!Cpu.tick_step} (its hooks may touch the tick). *)
  let tick_rem = ref (Cpu.tick_left t) in
  let finish () =
    flush ();
    if not observed then Cpu.set_tick_left t !tick_rem;
    if !link_hits <> 0 then Bcache.note_hits !link_hits
  in
  try
    let cur = ref b0 in
    let running = ref true in
    while !running do
      let b = !cur in
      let slots = b.b_slots in
      let user = b.b_user in
      let start = !consumed in
      let limit = min (Array.length slots) (fuel - start) in
      (if observed then begin
         (* Observed loop: a hook or the trace ring watches every
            slot, so EIP is maintained per slot and every slot probes
            (a hook is arbitrary OCaml — it may flush the TLB or remap
            pages between slots, so elided probes would lie).
            Chaining is disabled when observed, so [start] is 0. *)
         let i = ref 0 in
         while !i < limit do
           let s = slots.(!i) in
           (* [run] already invoked the hook and ticked for the
              dispatch's first instruction. *)
           if !i > 0 then (
             match hook with
             | Some f ->
                 flush ();
                 f t
             | None -> ());
           if !i > 0 && Cpu.tick_step t then begin
             flush ();
             Cpu.set_eip t s.s_eip;
             Cpu.tick_fire t
           end;
           Cpu.set_eip t s.s_eip;
           (match X86.Tlb.peek tlb ~vpn:s.s_vpn with
           | Some e when (not user) || e.X86.Tlb.e_user ->
               incr pending_hits
           | Some _ | None ->
               flush ();
               Cpu.fetch_translate t s.s_linear);
           if tracing then Cpu.trace_push t s.s_eip s.s_instr;
           incr pending_instrs;
           (match s.s_action with
           | Pure f ->
               pending_cycles := !pending_cycles + f t;
               Cpu.set_eip t s.s_fall
           | Pure_jump f -> pending_cycles := !pending_cycles + f t
           | Impure instr ->
               flush ();
               Cpu.exec_instr t instr);
           incr consumed;
           incr i
         done
       end
       else begin
         (* Fast loop: no per-slot observation points.  EIP is
            written only where it can become observable (a probe
            miss, an impure slot, a tick, a fault) and once at block
            end; probes are elided inside single-page pure runs
            ([s_probe]). *)
         let i = ref 0 in
         while !i < limit do
           let s = Array.unsafe_get slots !i in
           (* [run] ticked the dispatch's first instruction; every
              later slot — including slot 0 of chained blocks — ticks
              here. *)
           if start > 0 || !i > 0 then begin
             decr tick_rem;
             if !tick_rem <= 0 then begin
               (* the callback (a watchdog) observes cycles,
                  instruction counts and — if it raises — registers
                  and EIP: commit everything first, exactly as the
                  slow path would have.  Reset before firing, as
                  {!Cpu.tick_step} does. *)
               flush ();
               Cpu.set_eip t s.s_eip;
               Cpu.reset_tick t;
               tick_rem := Cpu.tick_left t;
               Cpu.tick_fire t
             end
           end;
           if s.s_probe then (
             match X86.Tlb.peek tlb ~vpn:s.s_vpn with
             | Some e when (not user) || e.X86.Tlb.e_user ->
                 incr pending_hits
             | Some _ | None ->
                 flush ();
                 Cpu.set_eip t s.s_eip;
                 Cpu.fetch_translate t s.s_linear)
           else incr pending_hits;
           incr pending_instrs;
           (match s.s_action with
           | Pure f -> pending_cycles := !pending_cycles + f t
           | Pure_jump f -> pending_cycles := !pending_cycles + f t
           | Impure instr ->
               Cpu.set_eip t s.s_eip;
               flush ();
               Cpu.exec_instr t instr);
           incr consumed;
           incr i
         done;
         (* jumps and the interpreter's execute stage set EIP
            themselves; a plain pure slot leaves it for the engine *)
         if limit > 0 then (
           let last = Array.unsafe_get slots (limit - 1) in
           match last.s_action with
           | Pure _ -> Cpu.set_eip t last.s_fall
           | Pure_jump _ | Impure _ -> ())
       end);
      running := false;
      if
        (not observed) && b.b_pure
        && !consumed - start = Array.length slots
        && !consumed < fuel
      then begin
        (* the exit EIP is in place: the last slot was a [Pure_jump]
           or the block-end fall-through write *)
        let tgt = Cpu.eip t in
        match b.b_link with
        | Some (e, nb) when e = tgt && (nb.b_cs == cs || nb.b_cs = cs) ->
            incr link_hits;
            cur := nb;
            running := true
        | _ -> (
            let key = cs.Seg.cache.Desc.base + tgt in
            match Bcache.find bx.cache key with
            | Some (Block nb) when nb.b_cs == cs || nb.b_cs = cs ->
                b.b_link <- Some (tgt, nb);
                cur := nb;
                running := true
            | Some _ -> () (* stale signature / non-block: next dispatch *)
            | None -> (
                match translate_block t cs tgt with
                | Some nb ->
                    Bcache.add bx.cache key (Block nb);
                    b.b_link <- Some (tgt, nb);
                    cur := nb;
                    running := true
                | None -> Bcache.add bx.cache key (No_block cs)))
      end
    done;
    finish ();
    !consumed
  with e ->
    (* Faults (and any other escape) must leave accounting exactly as
       the slow path would: completed slots are already committed,
       the faulting slot's pending state is flushed, and [run] learns
       how much fuel the completed slots consumed. *)
    finish ();
    Cpu.note_dispatch_progress t !consumed;
    raise e

(* --- Dispatch ------------------------------------------------------ *)

let slow_step t =
  Cpu.step t;
  1

let dispatch bx t fuel =
  Bcache.validate bx.cache
    ~code_gen:(Code_mem.generation (Cpu.code t))
    ~cpu_epoch:(Cpu.cache_epoch t);
  let cs = Cpu.seg_reg t Reg.CS in
  if Sel.is_null cs.Seg.selector || not (Desc.is_code cs.Seg.cache) then
    (* the slow path raises the precise fault *)
    slow_step t
  else
    let offset = Cpu.eip t in
    let key = cs.Seg.cache.Desc.base + offset in
    (* CS signature check: physical equality first — the CPU hands out
       the same [loaded] record until the segment register is actually
       reloaded — with structural equality as the slow fallback for a
       reload to an identical descriptor. *)
    match Bcache.find bx.cache key with
    | Some (Block b) when b.b_cs == cs || b.b_cs = cs -> exec_chain bx t cs b fuel
    | Some (No_block sig_cs) when sig_cs == cs || sig_cs = cs -> slow_step t
    | Some _ | None -> (
        (* miss, or the CS signature changed under the same linear
           address: (re-)translate *)
        match translate_block t cs offset with
        | Some b ->
            Bcache.add bx.cache key (Block b);
            exec_chain bx t cs b fuel
        | None ->
            Bcache.add bx.cache key (No_block cs);
            slow_step t)

(* --- Wiring -------------------------------------------------------- *)

let attach cpu =
  let bx = { cache = Bcache.create (); cpu } in
  Cpu.set_block_dispatch cpu (Some (fun t fuel -> dispatch bx t fuel));
  Cpu.set_engine cpu (Atomic.get default_engine);
  bx

let cpu t = t.cpu

let cached_blocks t = Bcache.size t.cache

let clear t = Bcache.clear t.cache

(* Pre-translate blocks at the given EIPs under an explicit
   code-segment signature (a loader's warm start for verified
   extensions: the CFG's block leaders).  Architecturally counter-free
   (only the [bcache.*] engine meta-counters move); a no-op when the
   engine is the interpreter. *)
let pretranslate bx ~cs eips =
  if Cpu.engine bx.cpu = Cpu.Blocks then begin
    Bcache.validate bx.cache
      ~code_gen:(Code_mem.generation (Cpu.code bx.cpu))
      ~cpu_epoch:(Cpu.cache_epoch bx.cpu);
    if (not (Sel.is_null cs.Seg.selector)) && Desc.is_code cs.Seg.cache then
      List.iter
        (fun eip ->
          let offset = mask32 eip in
          let key = cs.Seg.cache.Desc.base + offset in
          if not (Bcache.mem bx.cache key) then
            match translate_block bx.cpu cs offset with
            | Some b -> Bcache.add bx.cache key (Block b)
            | None -> ())
        eips
  end
