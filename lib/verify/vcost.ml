(* Static worst-case execution time and stack-depth analysis, layered
   on the verifier's CFG ({!Vcfg}), value domain ({!Vdomain} x
   {!Vtaint}) and call summaries ({!Vsum}).

   The unit of account is the *architectural* cycle: the charge
   {!Cpu.exec} levies per retired instruction under the configured
   {!Cycles.params}, excluding the two dynamic surcharges the static
   analysis cannot see — TLB walks ([tlb_walk * Paging.walk_length]
   per miss) and fault delivery ([fault_transfer]).  A verified,
   fault-free run therefore retires at most [wcet] architectural
   cycles; callers that need a wall-clock fuel limit (the kernel
   watchdog) add a walk surcharge derived from the instruction bound
   ([walk_surcharge] below) — every retired instruction performs at
   most two data translations in this ISA, and instruction fetch goes
   through the unpaged code space.

   Loop bounds come from a monotone-counter argument: if a natural
   loop's body writes some register exactly once per completed trip,
   by a constant stride [c], and a [cmp reg, imm; jcc] test that also
   runs exactly once per trip gates staying in the loop, then
   consecutive test values differ by exactly [c] and walk a monotone
   32-bit sequence out of the stay region.  The loop-entry window of
   the counter (joined over the out-states of the header's outside
   predecessors, which the abstract fixpoint provides) anchors the
   walk; {!trip_bound} turns each (stay shape, stride sign) pair into
   a finite trip count, wrap-aware.  Irreducible control flow, a
   conditional or aliased counter write, a clobbering call inside the
   body, or a test shape that cannot exclude re-entry after a wrap
   all make the loop unbounded.

   Accumulators saturate at {!cap}: a product of 32-bit trip counts
   overflows the native int long before it overflows the analysis, so
   every add/multiply goes through {!sat_add}/{!sat_mul} and any total
   that reaches the cap is reported [Unbounded] rather than a wrapped
   (possibly negative, possibly small) lie. *)

type bound = Finite of int | Unbounded

(* Saturation cap for cycle/instruction accumulators.  Well below
   [max_int] so that sums of capped values cannot wrap, far above any
   budget a kernel would grant. *)
let cap = 1 lsl 50

let sat v = if v >= cap then cap else v

let sat_add a b = if a >= cap - b then cap else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a >= (cap + b - 1) / b then cap else sat (a * b)

let fin v = if v >= cap then Unbounded else Finite v

let pp_bound ppf = function
  | Finite v -> Fmt.int ppf v
  | Unbounded -> Fmt.string ppf "unbounded"

type loop_bound = {
  lb_header : int; (* instruction index of the loop-header leader *)
  lb_blocks : int; (* blocks in the natural-loop body *)
  lb_trips : bound; (* max header entries per routine activation *)
}

(* The certified resource bounds of one image (joined over its entry
   routines, callees included via {!Vsum} bands). *)
type bounds = {
  b_wcet_cycles : bound;
  b_best_cycles : int; (* lower band; informational *)
  b_max_stack_bytes : bound;
  b_max_instrs : bound; (* retired-instruction bound for surcharges *)
  b_loops : loop_bound list;
}

let unbounded =
  {
    b_wcet_cycles = Unbounded;
    b_best_cycles = 0;
    b_max_stack_bytes = Unbounded;
    b_max_instrs = Unbounded;
    b_loops = [];
  }

let zero =
  {
    b_wcet_cycles = Finite 0;
    b_best_cycles = 0;
    b_max_stack_bytes = Finite 0;
    b_max_instrs = Finite 0;
    b_loops = [];
  }

let pp_bounds ppf b =
  let bounded =
    List.length (List.filter (fun l -> l.lb_trips <> Unbounded) b.b_loops)
  in
  Fmt.pf ppf "wcet=%a cycles (best %d), stack<=%a bytes, instrs<=%a, %d loop%s (%d bounded)"
    pp_bound b.b_wcet_cycles b.b_best_cycles pp_bound b.b_max_stack_bytes pp_bound
    b.b_max_instrs (List.length b.b_loops)
    (if List.length b.b_loops = 1 then "" else "s")
    bounded

(* ------------------------------------------------------------------ *)
(* Per-instruction pricing                                             *)
(* ------------------------------------------------------------------ *)

let wrap_limit = 1 lsl 32

(* Architectural cycle band of one instruction, mirroring the charges
   {!Cpu.exec} makes: base cost plus [mem_read_extra]/[mem_write_extra]
   per memory operand actually read/written.  The conditional-branch
   charge is priced per edge by the caller ([Jcc] prices as 0 here);
   opaque transfers — far calls, software interrupts, indirect near
   transfers, kernel upcalls — return [None] (top).  [callee] supplies
   the {!Vsum} band for resolvable near calls. *)
let price (p : Cycles.params) ~(callee : Instr.target -> Vsum.t) (instr : Instr.t) :
    (int * int) option =
  let m o = if Operand.is_memory o then 1 else 0 in
  let rd = p.Cycles.mem_read_extra and wr = p.Cycles.mem_write_extra in
  let f c = Some (c, c) in
  match instr with
  | Instr.Nop -> f p.Cycles.alu
  | Instr.Hlt -> f p.Cycles.hlt
  | Instr.Mark _ -> f 0
  | Instr.Work n -> f n
  | Instr.Mov (d, s) | Instr.Movb (d, s) -> f (p.Cycles.mov + (m s * rd) + (m d * wr))
  | Instr.Lea _ -> f p.Cycles.lea
  | Instr.Push o -> f (p.Cycles.push + (m o * rd) + wr)
  | Instr.Pop o -> f (p.Cycles.pop + rd + (m o * wr))
  | Instr.Push_sreg _ -> f (p.Cycles.push_sreg + wr)
  | Instr.Mov_to_sreg (_, o) -> f (p.Cycles.mov_sreg + p.Cycles.mov_sreg_hazard + (m o * rd))
  | Instr.Mov_from_sreg (o, _) -> f (p.Cycles.mov + (m o * wr))
  | Instr.Alu (_, d, s) -> f (p.Cycles.alu + (m d * rd) + (m s * rd) + (m d * wr))
  | Instr.Cmp (a, b) | Instr.Test (a, b) -> f (p.Cycles.alu + (m a * rd) + (m b * rd))
  | Instr.Inc o | Instr.Dec o | Instr.Neg o | Instr.Not o | Instr.Shl (o, _) | Instr.Shr (o, _)
    ->
      f (p.Cycles.alu + (m o * (rd + wr)))
  | Instr.Imul (_, o) -> f (p.Cycles.imul + (m o * rd))
  | Instr.Xchg (a, b) ->
      let base = if m a + m b > 0 then p.Cycles.xchg_mem else p.Cycles.alu in
      f (base + ((m a + m b) * (rd + wr)))
  | Instr.Call tgt -> (
      let base = p.Cycles.call_near + wr in
      match (callee tgt).Vsum.s_cycles with
      | Some (cl, ch) -> Some (sat_add base cl, sat_add base ch)
      | None -> None)
  | Instr.Ret | Instr.Ret_imm _ -> f (p.Cycles.ret_near + rd)
  | Instr.Jmp _ -> f p.Cycles.jmp
  | Instr.Jcc _ -> f 0 (* priced per edge *)
  | Instr.Wrpkru o -> f (p.Cycles.wrpkru + (m o * rd))
  | Instr.Call_ind _ | Instr.Jmp_ind _ | Instr.Lcall _ | Instr.Lcall_ind _ | Instr.Lret
  | Instr.Lret_imm _ | Instr.Int_ _ | Instr.Iret | Instr.Kcall _ ->
      None

(* Retired-instruction band: 1 for everything the simulator retires,
   plus the callee band for near calls, top for opaque transfers. *)
let instr_count ~(callee : Instr.target -> Vsum.t) (instr : Instr.t) : int option =
  match instr with
  | Instr.Call tgt -> (
      match (callee tgt).Vsum.s_instrs with Some n -> Some (sat_add 1 n) | None -> None)
  | Instr.Call_ind _ | Instr.Jmp_ind _ | Instr.Lcall _ | Instr.Lcall_ind _ | Instr.Lret
  | Instr.Lret_imm _ | Instr.Int_ _ | Instr.Iret | Instr.Kcall _ ->
      None
  | _ -> Some 1

(* ------------------------------------------------------------------ *)
(* Loop trip-count inference                                           *)
(* ------------------------------------------------------------------ *)

(* The unique constant-stride writer of register [r], if the
   instruction is one. *)
let stride_of r (instr : Instr.t) =
  match instr with
  | Instr.Inc (Operand.Reg r') when r' = r -> Some 1
  | Instr.Dec (Operand.Reg r') when r' = r -> Some (-1)
  | Instr.Alu (Instr.Add, Operand.Reg r', Operand.Imm c) when r' = r -> Some c
  | Instr.Alu (Instr.Sub, Operand.Reg r', Operand.Imm c) when r' = r -> Some (-c)
  | _ -> None

(* Conservative may-write check used to disqualify aliased counters.
   Calls consult the callee summary; opaque transfers clobber
   everything. *)
let may_write r ~callee (instr : Instr.t) =
  let reg o = match o with Operand.Reg r' -> r' = r | _ -> false in
  match instr with
  | Instr.Mov (d, _) | Instr.Movb (d, _) | Instr.Pop d | Instr.Mov_from_sreg (d, _)
  | Instr.Alu (_, d, _)
  | Instr.Inc d | Instr.Dec d | Instr.Neg d | Instr.Not d | Instr.Shl (d, _) | Instr.Shr (d, _)
    ->
      reg d
  | Instr.Lea (r', _) | Instr.Imul (r', _) -> r' = r
  | Instr.Xchg (a, b) -> reg a || reg b
  | Instr.Call tgt -> (callee tgt).Vsum.s_clobbers.(Reg.index r)
  | Instr.Call_ind _ | Instr.Lcall _ | Instr.Lcall_ind _ | Instr.Int_ _ | Instr.Kcall _ -> true
  | _ -> false

(* Normalised stay-predicates for an exit test [cmp r, k; jcc]: the
   condition under which control can REMAIN in the loop.  [k] is the
   comparison immediate after the adjustment that folds [<=]/[>] into
   strict/inclusive canonical forms. *)
type stay = S_eq of int | S_ne of int | S_ult of int | S_uge of int | S_slt of int | S_sge of int

let negate_cond (c : Instr.cond) : Instr.cond =
  match c with
  | Instr.Eq -> Instr.Ne
  | Instr.Ne -> Instr.Eq
  | Instr.Below -> Instr.Above_eq
  | Instr.Above_eq -> Instr.Below
  | Instr.Below_eq -> Instr.Above
  | Instr.Above -> Instr.Below_eq
  | Instr.Lt -> Instr.Ge
  | Instr.Ge -> Instr.Lt
  | Instr.Le -> Instr.Gt
  | Instr.Gt -> Instr.Le

let stay_of (c : Instr.cond) k : stay option =
  let k32 = k land (wrap_limit - 1) in
  match c with
  | Instr.Eq -> Some (S_eq k32)
  | Instr.Ne -> Some (S_ne k32)
  | Instr.Below -> Some (S_ult k32)
  | Instr.Below_eq -> if k32 + 1 < wrap_limit then Some (S_ult (k32 + 1)) else None
  | Instr.Above_eq -> Some (S_uge k32)
  | Instr.Above -> if k32 + 1 < wrap_limit then Some (S_uge (k32 + 1)) else None
  (* signed forms only for provably sign-positive immediates *)
  | Instr.Lt -> if k >= 0 && k < wrap_limit / 2 then Some (S_slt k) else None
  | Instr.Le -> if k >= 0 && k + 1 < wrap_limit / 2 then Some (S_slt (k + 1)) else None
  | Instr.Ge -> if k >= 0 && k < wrap_limit / 2 then Some (S_sge k) else None
  | Instr.Gt -> if k >= 0 && k + 1 < wrap_limit / 2 then Some (S_sge (k + 1)) else None

(* Completed-trip bound for a counter stepping by exactly [c] between
   consecutive executions of a test that [stay v] must satisfy to
   remain in the loop, with the first tested value in [lo0, hi0] (the
   caller widens the loop-entry window by one stride to cover either
   test/write order within a trip).  All arithmetic is over 32-bit
   unsigned words; [None] when the shape cannot exclude divergence
   (e.g. a wrapping up-counter that re-enters the stay region). *)
let trip_bound ~stay ~c ~lo0 ~hi0 =
  let d = abs c in
  match stay with
  | S_eq _ ->
      (* staying requires v = k; the write moves v off k, so the next
         test exits *)
      Some 1
  | S_ne k ->
      (* |c| = 1 walks every value, so it hits k before (or exactly
         when) completing a full 2^32-step cycle *)
      if d <> 1 then None
      else if c < 0 then Some (if k <= lo0 then hi0 - k else wrap_limit - 1)
      else Some (if k >= hi0 then k - lo0 else wrap_limit - 1)
  | S_ult k ->
      if c > 0 then
        (* ascending below k: no wrap while staying iff k + c <= 2^32 *)
        if k + c <= wrap_limit then Some (max 0 (((k - 1 - min lo0 (k - 1)) / c) + 1)) else None
      else
        (* descending below k: the wrap at 0 lands at >= 2^32 - d,
           outside [0, k) whenever k <= 2^32 - d *)
        if k <= wrap_limit - d then Some (((k - 1) / d) + 2)
        else None
  | S_uge k ->
      if c < 0 then
        (* descending while >= k: no wrap while staying iff k >= d *)
        if k >= d then Some (max 0 (((max hi0 k - k) / d) + 1)) else None
      else
        (* ascending while >= k: the wrap at 2^32 lands below d; that
           exits iff k >= d *)
        if k >= d then Some (((wrap_limit - 1 - k) / c) + 2) else None
  | S_slt k ->
      (* signed, k in [0, 2^31): usable when values provably stay
         sign-positive before the test *)
      if c > 0 && hi0 < wrap_limit / 2 && k + c <= wrap_limit / 2 then
        Some (max 0 (((k - 1 - min lo0 (k - 1)) / c) + 1))
      else None
  | S_sge k ->
      if c < 0 && hi0 < wrap_limit / 2 then
        (* the wrap at 0 lands sign-negative, below k >= 0: exits *)
        Some (max 0 (((max hi0 k - k) / d) + 2))
      else None

(* Trip bound (max body-block executions per activation) for one
   natural loop.  The shape required for soundness:

   - a single unaliased constant-stride writer of some register [r]
     in the body, outside any nested loop, dominating every back-edge
     source (fires exactly once per completed trip);
   - an exit test [cmp r, imm; jcc] ending a body block, likewise
     once per trip (dominates every back-edge source, not in an inner
     loop), with exactly one successor inside the body;
   - the loop-entry interval of [r], joined over the out-states of the
     header's non-body predecessors, widened by one stride — each
     inter-test segment contains exactly one counter write, whichever
     of the two runs first within a trip.

   Then consecutive test values step by exactly [c] while the stay
   predicate holds and {!trip_bound} applies. *)
let infer_trips cfg ~idom ~entry ~(loop : Vcfg.loop) ~other_loops ~reg_out ~callee =
  let body = loop.Vcfg.l_body in
  let in_body b = List.mem b body in
  let header = loop.Vcfg.l_header in
  let back_srcs =
    List.filter (fun b -> List.mem header cfg.Vcfg.blocks.(b).Vcfg.b_succs) body
  in
  let not_in_inner b =
    List.for_all
      (fun (l' : Vcfg.loop) ->
        l'.Vcfg.l_header = header
        || not (List.mem l'.Vcfg.l_header body && List.mem b l'.Vcfg.l_body))
      other_loops
  in
  (* Loop-entry interval of [r]: join of the out-states of the
     header's predecessors outside the body.  A header that is also
     the routine entry can be entered with anything. *)
  let entry_itv r =
    let full = (0, wrap_limit - 1) in
    let join (al, ah) (bl, bh) = (min al bl, max ah bh) in
    let from_preds =
      Array.fold_left
        (fun acc (b : Vcfg.block) ->
          if (not (in_body b.Vcfg.b_id)) && List.mem header b.Vcfg.b_succs then
            let itv = match reg_out b.Vcfg.b_id r with Some i -> i | None -> full in
            Some (match acc with None -> itv | Some a -> join a itv)
          else acc)
        None cfg.Vcfg.blocks
    in
    if header = entry then full else Option.value from_preds ~default:full
  in
  (* Candidate counters: unique stride writer in the body. *)
  let candidates = ref [] in
  List.iter
    (fun b ->
      let blk = cfg.Vcfg.blocks.(b) in
      for i = blk.Vcfg.b_start to blk.Vcfg.b_start + blk.Vcfg.b_len - 1 do
        List.iter
          (fun r ->
            match stride_of r cfg.Vcfg.instrs.(i) with
            | Some c when c <> 0 && abs c < wrap_limit / 2 && r <> Reg.ESP ->
                candidates := (r, c, b) :: !candidates
            | _ -> ())
          Reg.all
      done)
    body;
  let sole_writer r =
    let writers = ref 0 in
    List.iter
      (fun b ->
        let blk = cfg.Vcfg.blocks.(b) in
        for i = blk.Vcfg.b_start to blk.Vcfg.b_start + blk.Vcfg.b_len - 1 do
          if may_write r ~callee cfg.Vcfg.instrs.(i) then incr writers
        done)
      body;
    !writers = 1
  in
  (* Exit tests: body blocks ending [cmp r, imm; jcc] with at least one
     successor leaving the body. *)
  let exit_tests r =
    List.filter_map
      (fun b ->
        let blk = cfg.Vcfg.blocks.(b) in
        if blk.Vcfg.b_len < 2 then None
        else
          let last = blk.Vcfg.b_start + blk.Vcfg.b_len - 1 in
          match (cfg.Vcfg.instrs.(last - 1), cfg.Vcfg.instrs.(last)) with
          | Instr.Cmp (Operand.Reg r', Operand.Imm k), Instr.Jcc (cond, tgt) when r' = r -> (
              let taken =
                match Vcfg.resolve cfg tgt with
                | Vcfg.Local i -> Some cfg.Vcfg.block_of.(i)
                | _ -> None
              in
              let fall =
                if last + 1 < Array.length cfg.Vcfg.instrs then
                  Some cfg.Vcfg.block_of.(last + 1)
                else None
              in
              let inside s = match s with Some s -> in_body s | None -> false in
              match (inside taken, inside fall) with
              | true, false -> Some (b, stay_of cond k)
              | false, true -> Some (b, stay_of (negate_cond cond) k)
              | _ -> None)
          | _ -> None)
      body
  in
  let bound_for (r, c, wb) =
    if
      sole_writer r && not_in_inner wb
      && List.for_all (fun u -> Vcfg.dominates idom wb u) back_srcs
    then begin
      let lo0, hi0 = entry_itv r in
      let d = abs c in
      (* one-stride slop: the first tested value may already have seen
         the first trip's write *)
      let lo0 = max 0 (lo0 - d) and hi0 = min (wrap_limit - 1) (hi0 + d) in
      List.fold_left
        (fun acc (eb, stay) ->
          match stay with
          | Some stay
            when not_in_inner eb
                 && List.for_all (fun u -> Vcfg.dominates idom eb u) back_srcs -> (
              match trip_bound ~stay ~c ~lo0 ~hi0 with
              | Some t ->
                  let t = sat (t + 1) (* completed trips -> body executions *) in
                  Some (match acc with Some a -> min a t | None -> t)
              | None -> acc)
          | _ -> acc)
        None (exit_tests r)
    end
    else None
  in
  List.fold_left
    (fun acc cand ->
      match (acc, bound_for cand) with
      | Some a, Some b -> Some (min a b)
      | None, b -> b
      | a, None -> a)
    None !candidates

(* ------------------------------------------------------------------ *)
(* Routine-level bounds                                                *)
(* ------------------------------------------------------------------ *)

type routine_cost = {
  rc_cycles : (int * int) option; (* (best, wcet) band, None = top *)
  rc_instrs : int option;
  rc_loops : loop_bound list;
}

let routine (cfg : Vcfg.t) ~(params : Cycles.params) ~entry ~(live : int -> bool)
    ~(reg_out : int -> Reg.t -> (int * int) option) ~(callee : Instr.target -> Vsum.t) :
    routine_cost =
  let nb = Vcfg.n_blocks cfg in
  if nb = 0 || entry < 0 || entry >= nb then { rc_cycles = Some (0, 0); rc_instrs = Some 0; rc_loops = [] }
  else begin
    let idom = Vcfg.dominators cfg ~entry in
    let loops, irreducible = Vcfg.loops cfg ~entry in
    let live_loops = List.filter (fun l -> live l.Vcfg.l_header) loops in
    let live_irreducible = List.exists (fun (u, _) -> live u) irreducible in
    (* Trip bounds and the per-block iteration multiplier. *)
    let trips =
      List.map
        (fun l -> (l, infer_trips cfg ~idom ~entry ~loop:l ~other_loops:loops ~reg_out ~callee))
        live_loops
    in
    let rc_loops =
      List.map
        (fun ((l : Vcfg.loop), t) ->
          {
            lb_header = cfg.Vcfg.blocks.(l.Vcfg.l_header).Vcfg.b_start;
            lb_blocks = List.length l.Vcfg.l_body;
            lb_trips = (match t with Some t -> fin t | None -> Unbounded);
          })
        trips
    in
    let mult b =
      (* product of the trip bounds of every loop containing [b] *)
      List.fold_left
        (fun acc ((l : Vcfg.loop), t) ->
          if List.mem b l.Vcfg.l_body then
            match (acc, t) with Some a, Some t -> Some (sat_mul a t) | _ -> None
          else acc)
        (Some 1) trips
    in
    (* Per-block cycle and instruction bands (Jcc priced per edge /
       at the taken maximum in the loop summation). *)
    let block_band b =
      let blk = cfg.Vcfg.blocks.(b) in
      let lo = ref 0 and hi = ref (Some 0) in
      for i = blk.Vcfg.b_start to blk.Vcfg.b_start + blk.Vcfg.b_len - 1 do
        match price params ~callee cfg.Vcfg.instrs.(i) with
        | Some (l, h) ->
            lo := sat_add !lo l;
            hi := Option.map (fun a -> sat_add a h) !hi
        | None -> hi := None
      done;
      (!lo, !hi)
    in
    let block_instrs b =
      let blk = cfg.Vcfg.blocks.(b) in
      let n = ref (Some 0) in
      for i = blk.Vcfg.b_start to blk.Vcfg.b_start + blk.Vcfg.b_len - 1 do
        match (!n, instr_count ~callee cfg.Vcfg.instrs.(i)) with
        | Some a, Some c -> n := Some (sat_add a c)
        | _ -> n := None
      done;
      !n
    in
    let ends_in_jcc b =
      let blk = cfg.Vcfg.blocks.(b) in
      match cfg.Vcfg.instrs.(blk.Vcfg.b_start + blk.Vcfg.b_len - 1) with
      | Instr.Jcc _ -> true
      | _ -> false
    in
    let live_blocks =
      let rec range i acc = if i < 0 then acc else range (i - 1) (if live i then i :: acc else acc) in
      range (nb - 1) []
    in
    (* Worst case: exact longest path when the routine is acyclic;
       with loops, the sum over blocks of cost x iteration bound. *)
    let retreating =
      (* edges ignored for the acyclic traversals *)
      let be = Vcfg.back_edges cfg ~entry in
      fun u v -> List.mem (u, v) be
    in
    let jcc_edges b =
      (* (succ, taken_cost, not_taken_cost classification) *)
      let blk = cfg.Vcfg.blocks.(b) in
      let last = blk.Vcfg.b_start + blk.Vcfg.b_len - 1 in
      match cfg.Vcfg.instrs.(last) with
      | Instr.Jcc (_, tgt) ->
          let taken =
            match Vcfg.resolve cfg tgt with Vcfg.Local i -> Some cfg.Vcfg.block_of.(i) | _ -> None
          in
          Some (taken, last)
      | _ -> None
    in
    let edge_cost b s =
      match jcc_edges b with
      | Some (taken, _) ->
          if taken = Some s then params.Cycles.jcc_taken else params.Cycles.jcc_not_taken
      | None -> 0
    in
    let wcet =
      if live_loops = [] && not live_irreducible then begin
        (* DAG longest path over live blocks *)
        let memo = Array.make nb None in
        let rec longest b =
          match memo.(b) with
          | Some v -> v
          | None ->
              memo.(b) <- Some (Some 0);
              let _, base = block_band b in
              let v =
                match base with
                | None -> None
                | Some base ->
                    List.fold_left
                      (fun acc s ->
                        if not (live s) || retreating b s then acc
                        else
                          match (acc, longest s) with
                          | Some a, Some tail ->
                              Some (max a (sat_add (edge_cost b s) tail))
                          | _ -> None)
                      (Some 0) cfg.Vcfg.blocks.(b).Vcfg.b_succs
                    |> Option.map (fun t -> sat_add base t)
              in
              memo.(b) <- Some v;
              v
        in
        longest entry
      end
      else if live_irreducible then
        (* a cycle entered other than through its header: no natural
           loop carries its blocks, so [mult] would price them as if
           they ran once — refuse instead *)
        None
      else
        List.fold_left
          (fun acc b ->
            match (acc, mult b, snd (block_band b)) with
            | Some a, Some m, Some c ->
                let c = if ends_in_jcc b then sat_add c params.Cycles.jcc_taken else c in
                Some (sat_add a (sat_mul m c))
            | _ -> None)
          (Some 0) live_blocks
    in
    (* Lower band: shortest path ignoring retreating edges (a loop can
       run zero iterations past its header). *)
    let best =
      let memo = Array.make nb None in
      let rec shortest b =
        match memo.(b) with
        | Some v -> v
        | None ->
            memo.(b) <- Some 0;
            let base, _ = block_band b in
            let tail =
              List.fold_left
                (fun acc s ->
                  if not (live s) || retreating b s then acc
                  else
                    let c = sat_add (edge_cost b s) (shortest s) in
                    match acc with None -> Some c | Some a -> Some (min a c))
                None cfg.Vcfg.blocks.(b).Vcfg.b_succs
            in
            let v = sat_add base (Option.value tail ~default:0) in
            memo.(b) <- Some v;
            v
      in
      shortest entry
    in
    let instrs =
      if live_loops = [] && not live_irreducible then begin
        let memo = Array.make nb None in
        let rec longest b =
          match memo.(b) with
          | Some v -> v
          | None ->
              memo.(b) <- Some (Some 0);
              let v =
                match block_instrs b with
                | None -> None
                | Some base ->
                    List.fold_left
                      (fun acc s ->
                        if not (live s) || retreating b s then acc
                        else
                          match (acc, longest s) with
                          | Some a, Some tail -> Some (max a tail)
                          | _ -> None)
                      (Some 0) cfg.Vcfg.blocks.(b).Vcfg.b_succs
                    |> Option.map (fun t -> sat_add base t)
              in
              memo.(b) <- Some v;
              v
        in
        longest entry
      end
      else if live_irreducible then None
      else
        List.fold_left
          (fun acc b ->
            match (acc, mult b, block_instrs b) with
            | Some a, Some m, Some c -> Some (sat_add a (sat_mul m c))
            | _ -> None)
          (Some 0) live_blocks
    in
    let rc_cycles =
      match wcet with
      | Some w when w < cap -> Some (min best w, w)
      | _ -> None
    in
    let rc_instrs = match instrs with Some i when i < cap -> Some i | _ -> None in
    { rc_cycles; rc_instrs; rc_loops }
  end

(* ------------------------------------------------------------------ *)
(* Dynamic-surcharge bridge for fuel limits                            *)
(* ------------------------------------------------------------------ *)

(* Upper bound on the TLB-walk cycles a run retiring at most [instrs]
   instructions can be charged on top of its architectural cycles:
   every instruction in this ISA performs at most two data
   translations (instruction fetch reads the unpaged code space), and
   each miss walks [Paging.walk_length] levels. *)
let max_data_translations_per_instr = 2

let walk_surcharge (p : Cycles.params) ~instrs =
  sat_mul instrs (max_data_translations_per_instr * p.Cycles.tlb_walk * X86.Paging.walk_length)

(* ------------------------------------------------------------------ *)
(* Budget policy                                                       *)
(* ------------------------------------------------------------------ *)

(* Load-time admission control on the certified bounds.  The process
   default lives here; {!Pconfig} seeds it from PALLADIUM_BUDGET, and a
   world overrides it with the [budget] field of its [Kernel.policy]
   (resolved by [effective_policy]). *)
type policy = Ppolicy.t = Off | Warn | Reject

let default_policy : policy Atomic.t = Atomic.make Off

let policy () = Atomic.get default_policy

let set_policy p = Atomic.set default_policy p

let policy_of_string = Ppolicy.of_string

let policy_name = Ppolicy.name

let effective_policy = function Some p -> p | None -> policy ()

exception Over_budget of string * bounds

let c_images = Obs.Counters.counter "budget.images"
let c_rejected = Obs.Counters.counter "budget.rejected"
let c_warned = Obs.Counters.counter "budget.warned"

(* Is [bounds] admissible under a cycle budget?  [None] when yes;
   [Some reason] otherwise. *)
let violation ~budget_cycles b =
  match b.b_wcet_cycles with
  | Unbounded -> Some "static WCET is unbounded"
  | Finite w when w > budget_cycles ->
      Some (Printf.sprintf "static WCET %d cycles exceeds the budget of %d" w budget_cycles)
  | Finite _ -> None

let enforce ~policy:p ~budget_cycles ~mechanism ~name (b : bounds) =
  Obs.Counters.incr c_images;
  match p with
  | Off -> ()
  | Warn | Reject -> (
      match violation ~budget_cycles b with
      | None -> ()
      | Some why ->
          if p = Reject then begin
            Obs.Counters.incr c_rejected;
            raise (Over_budget (Printf.sprintf "%s: %s: %s" mechanism name why, b))
          end
          else begin
            Obs.Counters.incr c_warned;
            Fmt.epr "palladium-budget[%s]: %s: %s@." mechanism name why
          end)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let bound_json = function Finite v -> Obs.Json.Int v | Unbounded -> Obs.Json.Null

let bounds_json b =
  let module J = Obs.Json in
  J.Obj
    [
      ("wcet_cycles", bound_json b.b_wcet_cycles);
      ("best_cycles", J.Int b.b_best_cycles);
      ("max_stack_bytes", bound_json b.b_max_stack_bytes);
      ("max_instrs", bound_json b.b_max_instrs);
      ( "loops",
        J.List
          (List.map
             (fun l ->
               J.Obj
                 [
                   ("header_index", J.Int l.lb_header);
                   ("blocks", J.Int l.lb_blocks);
                   ("trips", bound_json l.lb_trips);
                 ])
             b.b_loops) );
    ]
