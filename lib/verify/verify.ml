(* Load-time extension verifier: CFG checks + fixpoint abstract
   interpretation over the simulated IA-32 subset, with a reduced
   product of two domains — saturated intervals ([Vdomain]) and a
   provenance/taint lattice ([Vtaint]) — plus interprocedural call
   summaries ([Vsum]).  Palladium itself confines extensions with
   runtime hardware checks; this pass rejects (or warns about) unsafe
   images *before* they run, and proves SFI guards redundant where the
   bounds are statically evident (the [Sfi.Verified] fast path).

   The verifier analyses the raw [Asm.program] an extension author
   supplies — before assembly and before any loader appends transfer or
   PLT stubs — so trusted loader-generated code (which legitimately
   contains [Mov_to_sreg] / [Lcall] / [Jmp_ind]) is never linted.

   Analysis structure: reachability is discovered from the exported
   entries only; call targets found in reachable code become routines,
   each analysed once from an unconstrained entry frame.  A routine's
   caller-visible effect is condensed into a [Vsum.t] summary (ESP
   delta, clobber set, return value, caller-memory writes) applied at
   its call sites, replacing the old whole-state havoc.  Accesses in
   unreachable code are never recorded — dead stores do not dilute the
   proved/runtime breakdown. *)

module IMap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type check = Cfg | Bounds | Privileged | Indirect | Stack | Termination

type severity = Info | Error

type diag = {
  d_check : check;
  d_severity : severity;
  d_index : int option; (* instruction index, when attributable *)
  d_msg : string;
}

type access_class =
  | Proved (* whole access provably inside the region *)
  | Stack_rel (* stack-pointer-relative through SS: confined by SS *)
  | Runtime (* not statically bounded; hardware checks it at run time *)
  | Oob (* provably outside the region: always faults *)

type access = {
  a_index : int;
  a_write : bool;
  a_size : int;
  a_ea : Vdomain.t; (* abstract effective address *)
  a_taint : Vtaint.t; (* provenance of the effective address *)
  a_ss : bool; (* goes through SS (stack-segment default rule) *)
  a_class : access_class;
}

type report = {
  r_name : string;
  r_instrs : int;
  r_blocks : int;
  r_diags : diag list;
  r_accesses : access list;
  r_back_edges : int;
  r_unreachable : int;
  r_far_targets : int list option;
      (* Some sels: every reachable far transfer goes to a statically
         known selector in [sels]; None: at least one far transfer (or
         a CFG-defeating indirect near transfer) is not static *)
  r_bounds : Vcost.bounds;
      (* certified worst-case cycle / stack / instruction bounds,
         joined over the exported entry routines *)
}

let check_name = function
  | Cfg -> "cfg"
  | Bounds -> "bounds"
  | Privileged -> "privileged"
  | Indirect -> "indirect"
  | Stack -> "stack"
  | Termination -> "termination"

let class_name = function
  | Proved -> "proved"
  | Stack_rel -> "stack"
  | Runtime -> "runtime"
  | Oob -> "oob"

let errors report = List.filter (fun d -> d.d_severity = Error) report.r_diags

let ok report = errors report = []

(* ------------------------------------------------------------------ *)
(* Abstract values: the reduced product                                *)
(* ------------------------------------------------------------------ *)

(* Every tracked quantity is an interval paired with its provenance
   tag.  [reduce] folds a taint-derived bound back into the interval
   (both domains over-approximate the same concrete word, so their
   meet does too); this is what keeps a re-masked loop index finite
   after interval widening has blown it out. *)
type av = Vdomain.t * Vtaint.t

let av_top : av = (Vdomain.top, Vtaint.untrusted)

let reduce ((n, t) : av) : av =
  match n with
  | Vdomain.Sp _ -> (n, Vtaint.untrusted)
  | _ -> (
      match Vtaint.bound t with
      | Some (lo, hi) -> (Vdomain.meet n (Vdomain.itv lo hi), t)
      | None -> (n, t))

let av_equal (n1, t1) (n2, t2) = Vdomain.equal n1 n2 && Vtaint.equal t1 t2

let av_join (n1, t1) (n2, t2) = (Vdomain.join n1 n2, Vtaint.join t1 t2)

let av_widen (n1, t1) (n2, t2) = reduce (Vdomain.widen n1 n2, Vtaint.widen t1 t2)

let av_const k = reduce (Vdomain.wrap32 (Vdomain.const k), Vtaint.const)

(* Arithmetic mirrors the CPU: every register write and effective
   address is a 32-bit word, so each transfer wraps its interval. *)
let lift2 fdom ftaint (n1, t1) (n2, t2) =
  reduce (Vdomain.wrap32 (fdom n1 n2), ftaint (t1, n1) (t2, n2))

let av_add = lift2 Vdomain.add Vtaint.add

let av_sub = lift2 Vdomain.sub Vtaint.sub

let av_band = lift2 Vdomain.band Vtaint.band

let av_bor = lift2 Vdomain.bor Vtaint.bor

let av_bxor = lift2 Vdomain.bxor Vtaint.bxor

let av_mul = lift2 Vdomain.mul Vtaint.mul

let av_shl ((n, t) : av) k = reduce (Vdomain.wrap32 (Vdomain.shl n k), Vtaint.shl (t, n) k)

let av_shr ((n, t) : av) k = reduce (Vdomain.wrap32 (Vdomain.shr n k), Vtaint.shr (t, n) k)

let av_neg ((n, t) : av) = reduce (Vdomain.wrap32 (Vdomain.neg n), Vtaint.neg (t, n))

(* not v = (2^32 - 1) - v for a 32-bit word. *)
let av_not ((n, _) : av) =
  reduce
    (Vdomain.wrap32 (Vdomain.sub (Vdomain.const (Vdomain.wrap_limit - 1)) n), Vtaint.untrusted)

let av_byte : av = (Vdomain.byte, Vtaint.byte)

(* ------------------------------------------------------------------ *)
(* Abstract machine state                                              *)
(* ------------------------------------------------------------------ *)

(* Registers plus the statically-tracked stack cells.  Cells are keyed
   by their offset from the routine's entry ESP and only exist while
   ESP is tracked exactly; anything else reads as Top. *)
type state = { regs : av array; cells : av IMap.t }

let esp_i = Reg.index Reg.ESP

let eax_i = Reg.index Reg.EAX

let routine_state ?arg () =
  let regs = Array.make Reg.count av_top in
  regs.(esp_i) <- (Vdomain.sp 0 0, Vtaint.untrusted);
  let cells =
    match arg with
    | Some (lo, hi) -> IMap.singleton 4 (reduce (Vdomain.itv lo hi, Vtaint.region lo hi))
    | None -> IMap.empty
  in
  { regs; cells }

let equal_state a b =
  (try
     Array.iter2 (fun x y -> if not (av_equal x y) then raise Exit) a.regs b.regs;
     true
   with Exit -> false)
  && IMap.equal av_equal a.cells b.cells

(* Cells missing from either side join to Top, i.e. the key vanishes. *)
let merge_cells f a b =
  IMap.merge
    (fun _ x y -> match (x, y) with Some x, Some y -> Some (f x y) | _ -> None)
    a b

let join_state a b =
  { regs = Array.map2 av_join a.regs b.regs; cells = merge_cells av_join a.cells b.cells }

let widen_state old next =
  { regs = Array.map2 av_widen old.regs next.regs; cells = merge_cells av_widen old.cells next.cells }

let reg st r = st.regs.(Reg.index r)

let set_reg st r v =
  let regs = Array.copy st.regs in
  regs.(Reg.index r) <- v;
  { st with regs }

(* Apply a callee summary at a call site.  [None] when the callee has
   no reachable return: the fall-through is dead. *)
let apply_call st (s : Vsum.t) : state option =
  if not s.Vsum.s_returns then None
  else
    let esp' =
      match s.Vsum.s_esp_delta with
      | Some (l, h) ->
          (* wrap32 like every other register write: a hijacked (plain
             Itv) ESP near 2^32 plus a stdcall delta must not exceed the
             hardware window, or later stack accesses get spurious Oob.
             Sp stays symbolic — wrap32 leaves it untouched. *)
          (Vdomain.wrap32 (Vdomain.add (fst st.regs.(esp_i)) (Vdomain.itv l h)), Vtaint.untrusted)
      | None -> av_top
    in
    let regs =
      Array.mapi
        (fun i v ->
          if i = esp_i then esp'
          else if s.Vsum.s_clobbers.(i) then
            if i = eax_i then reduce s.Vsum.s_ret_val else av_top
          else v)
        st.regs
    in
    let cells = if s.Vsum.s_writes_mem then IMap.empty else st.cells in
    Some { regs; cells }

(* ------------------------------------------------------------------ *)
(* Transfer function                                                   *)
(* ------------------------------------------------------------------ *)

(* Default-segment rule, mirrored from the CPU: ESP/EBP-based operands
   address the stack segment. *)
let is_ss (m : Operand.mem) =
  match m.Operand.seg_override with
  | Some Reg.SS -> true
  | Some _ -> false
  | None -> ( match m.Operand.base with Some (Reg.ESP | Reg.EBP) -> true | _ -> false)

let ea st (m : Operand.mem) : av =
  let base = match m.Operand.base with Some r -> reg st r | None -> av_const 0 in
  let index =
    match m.Operand.index with
    | Some (r, scale) -> av_mul (reg st r) (av_const scale)
    | None -> av_const 0
  in
  av_add (av_add base index) (av_const m.Operand.disp)

let load st (a : av) ~size : av =
  if size = 1 then av_byte
  else
    match fst a with
    | Vdomain.Sp (o, o') when o = o' -> (
        match IMap.find_opt o st.cells with Some v -> v | None -> av_top)
    | _ -> av_top

(* A byte store into a tracked 4-byte cell corrupts it partially: the
   cell degrades to Top (key removed) rather than taking the value.  A
   store through an address the analysis cannot pin to an exact stack
   slot may alias any tracked cell (the stack segment and the data
   segment are not required to be disjoint), so the whole cell map is
   dropped — stale cells must never back a [Proved] claim. *)
let store st (a : av) v ~size =
  match fst a with
  | Vdomain.Sp (o, o') when o = o' ->
      if size = 1 then { st with cells = IMap.remove o st.cells }
      else { st with cells = IMap.add o v st.cells }
  | _ -> { st with cells = IMap.empty }

let value_of record i st ~size (o : Operand.t) : av =
  match o with
  | Operand.Reg r -> reg st r
  | Operand.Imm k -> av_const k
  | Operand.Sym _ -> av_top (* loader-resolved absolute *)
  | Operand.Mem m ->
      let a = ea st m in
      record i ~write:false ~size ~ss:(is_ss m) a;
      load st a ~size

let write record i st ~size (o : Operand.t) v =
  match o with
  | Operand.Reg r -> set_reg st r v
  | Operand.Mem m ->
      let a = ea st m in
      record i ~write:true ~size ~ss:(is_ss m) a;
      store st a v ~size
  | Operand.Imm _ | Operand.Sym _ -> st (* malformed; the CPU faults *)

(* Pushes and pops through a hijacked (non-stack-relative) ESP are
   recorded as ordinary memory accesses so a [Mov esp, addr; Push]
   escape is still bounds-checked.  They go through SS by definition. *)
let do_push record i st v =
  let esp1 = av_sub (reg st Reg.ESP) (av_const 4) in
  (match fst esp1 with Vdomain.Sp _ -> () | _ -> record i ~write:true ~size:4 ~ss:true esp1);
  let st = set_reg st Reg.ESP esp1 in
  match fst esp1 with
  | Vdomain.Sp (o, o') when o = o' -> { st with cells = IMap.add o v st.cells }
  | Vdomain.Sp _ -> { st with cells = IMap.empty }
  | _ -> st

let top_of_stack record i st : av =
  match fst (reg st Reg.ESP) with
  | Vdomain.Sp (o, o') when o = o' -> (
      match IMap.find_opt o st.cells with Some v -> v | None -> av_top)
  | Vdomain.Sp _ -> av_top
  | _ ->
      record i ~write:false ~size:4 ~ss:true (reg st Reg.ESP);
      av_top

(* [transfer] returns [None] when control provably does not proceed
   past the instruction (a call to a routine with no return path). *)
let transfer ~record ~ret_check ~far ~call i st (instr : Instr.t) : state option =
  let value = value_of record i st in
  let rmw o f =
    let v = f (value ~size:4 o) in
    write record i st ~size:4 o v
  in
  match instr with
  | Instr.Mov (dst, src) -> Some (write record i st ~size:4 dst (value ~size:4 src))
  | Instr.Movb (dst, src) -> (
      let v = value ~size:1 src in
      match dst with
      | Operand.Reg _ ->
          (* the CPU zero-extends byte moves into registers *)
          Some (write record i st ~size:1 dst (av_band v (av_const 0xff)))
      | _ -> Some (write record i st ~size:1 dst v))
  | Instr.Lea (r, m) -> Some (set_reg st r (ea st m)) (* no memory access *)
  | Instr.Push o -> Some (do_push record i st (value ~size:4 o))
  | Instr.Push_sreg _ -> Some (do_push record i st av_top)
  | Instr.Pop (Operand.Reg Reg.ESP) ->
      ignore (top_of_stack record i st);
      Some (set_reg st Reg.ESP av_top)
  | Instr.Pop o ->
      let v = top_of_stack record i st in
      (* the destination EA is computed with the pre-pop ESP *)
      let st = write record i st ~size:4 o v in
      Some (set_reg st Reg.ESP (av_add (reg st Reg.ESP) (av_const 4)))
  | Instr.Mov_to_sreg (_, o) ->
      ignore (value ~size:4 o);
      Some st
  | Instr.Mov_from_sreg (o, _) -> Some (write record i st ~size:4 o av_top)
  | Instr.Alu (op, dst, src) ->
      let b = value ~size:4 src in
      let f =
        match op with
        | Instr.Add -> fun a -> av_add a b
        | Instr.Sub -> fun a -> av_sub a b
        | Instr.And -> fun a -> av_band a b
        | Instr.Or -> fun a -> av_bor a b
        | Instr.Xor -> fun a -> av_bxor a b
      in
      Some (rmw dst f)
  | Instr.Cmp (a, b) | Instr.Test (a, b) ->
      ignore (value ~size:4 a);
      ignore (value ~size:4 b);
      Some st
  | Instr.Inc o -> Some (rmw o (fun v -> av_add v (av_const 1)))
  | Instr.Dec o -> Some (rmw o (fun v -> av_sub v (av_const 1)))
  | Instr.Neg o -> Some (rmw o av_neg)
  | Instr.Not o -> Some (rmw o av_not)
  | Instr.Shl (o, n) -> Some (rmw o (fun v -> av_shl v n))
  | Instr.Shr (o, n) -> Some (rmw o (fun v -> av_shr v n))
  | Instr.Imul (r, o) ->
      let v = value ~size:4 o in
      Some (set_reg st r (av_mul (reg st r) v))
  | Instr.Xchg (a, b) ->
      let va = value ~size:4 a and vb = value ~size:4 b in
      let st = write record i st ~size:4 a vb in
      Some (write record i st ~size:4 b va)
  | Instr.Call tgt ->
      (* the return-address push through a hijacked ESP is a store *)
      (match fst (reg st Reg.ESP) with
      | Vdomain.Sp _ -> ()
      | _ -> record i ~write:true ~size:4 ~ss:true (av_sub (reg st Reg.ESP) (av_const 4)));
      apply_call st (call (Some tgt))
  | Instr.Call_ind o ->
      ignore (value ~size:4 o);
      apply_call st (call None)
  | Instr.Lcall_ind o ->
      let v = value ~size:4 o in
      far i v;
      apply_call st (call None)
  | Instr.Lcall _ | Instr.Kcall _ | Instr.Int_ _ -> apply_call st (call None)
  | Instr.Ret ->
      (match fst (reg st Reg.ESP) with
      | Vdomain.Sp _ -> ()
      | _ -> record i ~write:false ~size:4 ~ss:true (reg st Reg.ESP));
      ret_check i ~imm:0 st;
      Some st
  | Instr.Ret_imm n ->
      (match fst (reg st Reg.ESP) with
      | Vdomain.Sp _ -> ()
      | _ -> record i ~write:false ~size:4 ~ss:true (reg st Reg.ESP));
      ret_check i ~imm:n st;
      Some st
  | Instr.Jmp_ind o | Instr.Wrpkru o ->
      ignore (value ~size:4 o);
      Some st
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Lret | Instr.Lret_imm _ | Instr.Iret | Instr.Hlt
  | Instr.Nop | Instr.Mark _ | Instr.Work _ ->
      Some st

(* Registers an instruction may write, for summary clobber sets (calls
   are handled by unioning the callee summary at the scan site). *)
let written_regs : Instr.t -> Reg.t list =
  let of_op = function Operand.Reg r -> [ r ] | _ -> [] in
  function
  | Instr.Mov (dst, _) | Instr.Movb (dst, _) | Instr.Alu (_, dst, _) -> of_op dst
  | Instr.Lea (r, _) | Instr.Imul (r, _) -> [ r ]
  | Instr.Pop o -> Reg.ESP :: of_op o
  | Instr.Push _ | Instr.Push_sreg _ -> [ Reg.ESP ]
  | Instr.Inc o | Instr.Dec o | Instr.Neg o | Instr.Not o | Instr.Shl (o, _) | Instr.Shr (o, _)
    ->
      of_op o
  | Instr.Xchg (a, b) -> of_op a @ of_op b
  | Instr.Mov_from_sreg (o, _) -> of_op o
  | Instr.Ret_imm _ -> [ Reg.ESP ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Static lints                                                        *)
(* ------------------------------------------------------------------ *)

let operands_of : Instr.t -> Operand.t list = function
  | Instr.Mov (a, b)
  | Instr.Movb (a, b)
  | Instr.Alu (_, a, b)
  | Instr.Cmp (a, b)
  | Instr.Test (a, b)
  | Instr.Xchg (a, b) ->
      [ a; b ]
  | Instr.Push o
  | Instr.Pop o
  | Instr.Inc o
  | Instr.Dec o
  | Instr.Neg o
  | Instr.Not o
  | Instr.Shl (o, _)
  | Instr.Shr (o, _)
  | Instr.Mov_to_sreg (_, o)
  | Instr.Mov_from_sreg (o, _)
  | Instr.Imul (_, o)
  | Instr.Call_ind o
  | Instr.Jmp_ind o
  | Instr.Lcall_ind o
  | Instr.Wrpkru o ->
      [ o ]
  | Instr.Lea _ | Instr.Push_sreg _ | Instr.Call _ | Instr.Ret | Instr.Ret_imm _
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Lcall _ | Instr.Lret | Instr.Lret_imm _
  | Instr.Int_ _ | Instr.Iret | Instr.Hlt | Instr.Nop | Instr.Mark _ | Instr.Kcall _
  | Instr.Work _ ->
      []

let privileged_of : Instr.t -> string option = function
  | Instr.Mov_to_sreg (sr, _) ->
      Some (Printf.sprintf "writes segment register %s" (Reg.sreg_name sr))
  | Instr.Lret | Instr.Lret_imm _ -> Some "far return (inter-segment transfer)"
  | Instr.Int_ v -> Some (Printf.sprintf "software interrupt int %#x" v)
  | Instr.Iret -> Some "interrupt return"
  | Instr.Hlt -> Some "privileged opcode hlt"
  | Instr.Kcall s -> Some (Printf.sprintf "kernel upcall %s" s)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Main entry                                                          *)
(* ------------------------------------------------------------------ *)

(* Classification works on the reduced interval; the taint tag rides
   along for reporting.  A stack-relative address only counts as
   SS-confined when the access actually goes through SS — the same
   abstract value reached through a DS-defaulting base register is an
   ordinary runtime-checked access. *)
let classify ~region:(lo, hi) ~size ~ss (a : Vdomain.t) : access_class =
  match a with
  | Vdomain.Sp _ -> if ss then Stack_rel else Runtime
  | Vdomain.Itv (l, h) ->
      if l >= lo && h + size <= hi then Proved
      else if h < lo || l + size > hi then Oob
      else Runtime
  | Vdomain.Top -> Runtime
  | Vdomain.Bot -> Proved (* dead state: vacuously safe *)

let max_widen_delay = 4

(* Raw observations from one routine's final pass, merged across
   routines before classification. *)
type observations = {
  o_accs : (int * bool * int * bool * av) list; (* index, write, size, ss, ea *)
  o_rets : (int * int * av * av) list; (* index, imm, esp, eax *)
  o_fars : (int * av) list; (* index, operand of lcall_ind *)
}

let verify ?(org = 0) ?(entries = []) ?(externs = fun _ -> false) ?(region = (0, 1 lsl 32))
    ?arg ?(allowed_far = fun _ -> false) ?(allowed_wrpkru = fun _ -> false)
    ?(allow_far_indirect = true) ?(allow_near_indirect = false) ?(lint_privileged = true)
    ?(require_termination = false) ?(check_stack = true) ?(cost_params = Cycles.pentium)
    ~name (program : Asm.program) : report =
  let cfg = Vcfg.build ~org ~externs program in
  let n = Vcfg.n_instrs cfg in
  let nb = Vcfg.n_blocks cfg in
  let diags = ref [] in
  let diag ?index check severity fmt =
    Printf.ksprintf
      (fun msg ->
        diags := { d_check = check; d_severity = severity; d_index = index; d_msg = msg } :: !diags)
      fmt
  in
  (* --- CFG well-formedness ---------------------------------------- *)
  List.iter (fun l -> diag Cfg Error "duplicate label %s" l) cfg.Vcfg.dup_labels;
  List.iter
    (fun e ->
      match Hashtbl.find_opt cfg.Vcfg.labels e with
      | Some i when i < n -> ()
      | Some _ -> diag Cfg Error "entry symbol %s marks the end of the text" e
      | None -> diag Cfg Error "entry symbol %s is not defined" e)
    entries;
  Array.iteri
    (fun i instr ->
      (match Vcfg.flow_of instr with
      | Vcfg.Jump tgt | Vcfg.Branch tgt | Vcfg.Call_to tgt -> (
          match Vcfg.resolve cfg tgt with
          | Vcfg.Invalid why -> diag ~index:i Cfg Error "%s" why
          | Vcfg.Local _ | Vcfg.External _ -> ())
      | _ -> ());
      List.iter
        (function
          | Operand.Sym s ->
              if not (Hashtbl.mem cfg.Vcfg.labels s || externs s) then
                diag ~index:i Cfg Error "unresolved symbol %s" s
          | _ -> ())
        (operands_of instr);
      (* --- instruction lints -------------------------------------- *)
      (if lint_privileged then
         match privileged_of instr with
         | Some why -> diag ~index:i Privileged Error "%s" why
         | None -> ());
      (* WRPKRU is unprivileged on the hardware, so the verifier is the
         only line of defense against an extension rewriting its own
         access rights: the operand must be a constant immediate and
         one of the values the protection backend assigned to its
         entry/exit stubs.  Checked regardless of [lint_privileged] —
         even SFI-profiled code has no business touching PKRU. *)
      (match instr with
      | Instr.Wrpkru (Operand.Imm v) ->
          if allowed_wrpkru v then
            diag ~index:i Privileged Info
              "wrpkru %#x (backend-assigned rights value)" v
          else
            diag ~index:i Privileged Error
              "wrpkru %#x is not a backend-assigned rights value" v
      | Instr.Wrpkru _ ->
          diag ~index:i Privileged Error
            "wrpkru with a non-constant operand (rights must be a backend-assigned immediate)"
      | _ -> ());
      match instr with
      | Instr.Jmp_ind _ | Instr.Call_ind _ ->
          if allow_near_indirect then
            diag ~index:i Indirect Info "indirect near transfer (policy: allowed)"
          else diag ~index:i Indirect Error "indirect near transfer to a computed address"
      | Instr.Lcall sel ->
          if not (allowed_far sel) then
            diag ~index:i Indirect Error "far call to unvetted selector %#x" sel
      | _ -> ())
    cfg.Vcfg.instrs;
  (* --- reachability and termination -------------------------------- *)
  (* Roots are the exported entries only; call targets are discovered
     transitively by the DFS (it follows call edges), so code reachable
     only from dead blocks stays dead. *)
  let entry_bs = Vcfg.entry_blocks cfg ~entries in
  let reachable, back_edges = Vcfg.dfs cfg ~roots:entry_bs in
  let routine_entries =
    Array.fold_left
      (fun acc (b : Vcfg.block) ->
        if reachable.(b.Vcfg.b_id) then List.rev_append b.Vcfg.b_calls acc else acc)
      [] cfg.Vcfg.blocks
    |> List.sort_uniq compare
  in
  let unreachable = ref 0 in
  Array.iteri
    (fun bi r ->
      if not r then begin
        incr unreachable;
        diag ~index:cfg.Vcfg.blocks.(bi).Vcfg.b_start Cfg Info "unreachable code"
      end)
    reachable;
  Array.iter
    (fun (b : Vcfg.block) ->
      if b.Vcfg.b_falls_off && reachable.(b.Vcfg.b_id) then
        diag ~index:(b.Vcfg.b_start + b.Vcfg.b_len - 1) Cfg Error
          "control can run past the end of the text")
    cfg.Vcfg.blocks;
  let n_back = List.length back_edges in
  if require_termination && n_back > 0 then
    diag Termination Error "CFG has %d back edge%s: termination is not provable" n_back
      (if n_back = 1 then "" else "s")
  else if n_back > 0 then
    diag Termination Info "CFG has %d back edge%s (loops allowed)" n_back
      (if n_back = 1 then "" else "s");
  (* --- interprocedural fixpoint abstract interpretation ------------- *)
  let obs = ref [] in
  let entry_sums : Vsum.t list ref = ref [] in
  let all_loops : Vcost.loop_bound list ref = ref [] in
  if n > 0 then begin
    let summaries : (int, Vsum.t) Hashtbl.t = Hashtbl.create 8 in
    let in_progress : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let no_record _ ~write:_ ~size:_ ~ss:_ _ = () in
    let no_ret _ ~imm:_ _ = () in
    let no_far _ _ = () in
    let rec summary_of entry_b : Vsum.t =
      match Hashtbl.find_opt summaries entry_b with
      | Some s -> s
      | None ->
          if Hashtbl.mem in_progress entry_b then
            (* recursion: nothing sound is known about the cycle, not
               even the ESP delta *)
            { Vsum.havoc with Vsum.s_esp_delta = None }
          else begin
            Hashtbl.add in_progress entry_b ();
            let s = analyze_routine entry_b () in
            Hashtbl.remove in_progress entry_b;
            Hashtbl.replace summaries entry_b s;
            s
          end
    and call_summary tgt_opt =
      match tgt_opt with
      | Some tgt -> (
          match Vcfg.resolve cfg tgt with
          | Vcfg.Local i -> summary_of cfg.Vcfg.block_of.(i)
          | Vcfg.External _ | Vcfg.Invalid _ -> Vsum.havoc)
      | None -> Vsum.havoc
    and analyze_routine entry_b ?arg () : Vsum.t =
      let in_states : state option array = Array.make nb None in
      let pending = Array.make nb false in
      let visits = Array.make nb 0 in
      let q = Queue.create () in
      let enqueue b =
        if not pending.(b) then begin
          pending.(b) <- true;
          Queue.add b q
        end
      in
      let seed b st =
        match in_states.(b) with
        | None ->
            in_states.(b) <- Some st;
            enqueue b
        | Some old ->
            let j = join_state old st in
            if not (equal_state j old) then begin
              visits.(b) <- visits.(b) + 1;
              let j = if visits.(b) > max_widen_delay then widen_state old j else j in
              in_states.(b) <- Some j;
              enqueue b
            end
      in
      let run_block ?(pre = fun _ _ _ -> ()) ~record ~ret_check ~far (b : Vcfg.block) st0 =
        let st = ref (Some st0) in
        for i = b.Vcfg.b_start to b.Vcfg.b_start + b.Vcfg.b_len - 1 do
          match !st with
          | None -> () (* a no-return call: the block tail is dead *)
          | Some s ->
              pre i s cfg.Vcfg.instrs.(i);
              st := transfer ~record ~ret_check ~far ~call:call_summary i s cfg.Vcfg.instrs.(i)
        done;
        !st
      in
      seed entry_b (routine_state ?arg ());
      while not (Queue.is_empty q) do
        let b = Queue.pop q in
        pending.(b) <- false;
        match in_states.(b) with
        | None -> ()
        | Some st_in -> (
            match
              run_block ~record:no_record ~ret_check:no_ret ~far:no_far cfg.Vcfg.blocks.(b) st_in
            with
            | Some out -> List.iter (fun s -> seed s out) cfg.Vcfg.blocks.(b).Vcfg.b_succs
            | None -> ())
      done;
      (* Final pass from the fixed entry states: collect accesses,
         return sites and far-call operands for this routine, and walk
         the abstract ESP at every reachable instruction for the
         stack-depth bound. *)
      let accs = ref [] in
      let rets = ref [] in
      let fars = ref [] in
      let record i ~write ~size ~ss a = accs := (i, write, size, ss, a) :: !accs in
      let ret_check i ~imm st = rets := (i, imm, st.regs.(esp_i), st.regs.(eax_i)) :: !rets in
      let far i v = fars := (i, v) :: !fars in
      let stack_depth = ref 0 in
      let stack_top = ref false in
      let pre _i st instr =
        match fst st.regs.(esp_i) with
        | Vdomain.Bot -> ()
        | Vdomain.Sp (l, _) when l > -Vdomain.inf_bound -> (
            let need = max 0 (-l) in
            let extra =
              match instr with
              | Instr.Push _ | Instr.Push_sreg _ | Instr.Call _ | Instr.Call_ind _ -> 4
              | _ -> 0
            in
            stack_depth := max !stack_depth (need + extra);
            match instr with
            | Instr.Call tgt -> (
                match (call_summary (Some tgt)).Vsum.s_stack_bytes with
                | Some cb -> stack_depth := max !stack_depth (need + 4 + cb)
                | None -> stack_top := true)
            | Instr.Call_ind _ | Instr.Kcall _ ->
                (* unknown near callee / opaque upcall: its frame is
                   unbounded from here *)
                stack_top := true
            | Instr.Lcall _ | Instr.Lcall_ind _ | Instr.Int_ _ ->
                (* vetted far transfers switch to the callee's own
                   stack; the same-PL gate case pushes CS:EIP here *)
                stack_depth := max !stack_depth (need + 8)
            | _ -> ())
        | _ -> stack_top := true
      in
      let out_states : state option array = Array.make nb None in
      Array.iteri
        (fun bi st ->
          match st with
          | Some st ->
              out_states.(bi) <- run_block ~pre ~record ~ret_check ~far cfg.Vcfg.blocks.(bi) st
          | None -> ())
        in_states;
      (* Stack traffic below the entry frame also consumes stack, even
         when ESP itself never moves there. *)
      List.iter
        (fun (_, _, _size, ss, (ea : av)) ->
          match fst ea with
          | Vdomain.Sp (l, _) when l > -Vdomain.inf_bound ->
              if l < 0 then stack_depth := max !stack_depth (-l)
          | Vdomain.Sp _ -> stack_top := true
          | _ -> if ss then stack_top := true)
        !accs;
      obs := { o_accs = !accs; o_rets = !rets; o_fars = !fars } :: !obs;
      (* Cycle / instruction bounds for this routine. *)
      let rc =
        Vcost.routine cfg ~params:cost_params ~entry:entry_b
          ~live:(fun b -> in_states.(b) <> None)
          ~reg_out:(fun b r ->
            match out_states.(b) with
            | Some st ->
                let d, t = st.regs.(Reg.index r) in
                let clamp lo hi =
                  let lo = max lo 0 and hi = min hi (Vdomain.wrap_limit - 1) in
                  if lo > hi then None else Some (lo, hi)
                in
                let from_d =
                  match d with Vdomain.Itv (l, h) -> clamp l h | _ -> None
                in
                (match (from_d, Vtaint.bound t) with
                | Some (l1, h1), Some (l2, h2) -> clamp (max l1 l2) (min h1 h2)
                | (Some _ as b), None -> b
                | None, Some (l, h) -> clamp l h
                | None, None -> None)
            | None -> None)
          ~callee:(fun tgt -> call_summary (Some tgt))
      in
      all_loops := List.rev_append rc.Vcost.rc_loops !all_loops;
      let stack_bytes = if !stack_top then None else Some !stack_depth in
      (* Condense the routine into its caller-visible summary. *)
      let clobbers = Array.make Reg.count false in
      let writes_mem = ref false in
      Array.iteri
        (fun bi st ->
          if st <> None then begin
            let b = cfg.Vcfg.blocks.(bi) in
            for i = b.Vcfg.b_start to b.Vcfg.b_start + b.Vcfg.b_len - 1 do
              let instr = cfg.Vcfg.instrs.(i) in
              List.iter (fun r -> clobbers.(Reg.index r) <- true) (written_regs instr);
              match instr with
              | Instr.Call tgt ->
                  let s = call_summary (Some tgt) in
                  Array.iteri (fun j c -> if c then clobbers.(j) <- true) s.Vsum.s_clobbers;
                  if s.Vsum.s_writes_mem then writes_mem := true
              | Instr.Call_ind _ | Instr.Lcall _ | Instr.Lcall_ind _ | Instr.Kcall _
              | Instr.Int_ _ ->
                  Array.iteri
                    (fun j c -> if c then clobbers.(j) <- true)
                    Vsum.havoc.Vsum.s_clobbers;
                  writes_mem := true
              | _ -> ()
            done
          end)
        in_states;
      (* A store at or above the return-address slot (entry offset 0)
         reaches caller-visible memory; so does any store the analysis
         cannot pin below it. *)
      List.iter
        (fun (_, w, size, _, (ea : av)) ->
          if w then
            match fst ea with
            | Vdomain.Sp (_, h) when h + size <= 0 -> ()
            | Vdomain.Bot -> ()
            | _ -> writes_mem := true)
        !accs;
      clobbers.(esp_i) <- false;
      if !rets = [] then
        {
          Vsum.no_return with
          Vsum.s_cycles = rc.Vcost.rc_cycles;
          Vsum.s_stack_bytes = stack_bytes;
          Vsum.s_instrs = rc.Vcost.rc_instrs;
        }
      else
        List.fold_left
          (fun acc (_, imm, esp, eax) ->
            let one =
              {
                Vsum.s_esp_delta =
                  (match fst esp with
                  | Vdomain.Sp (l, h) -> Some (l + imm, h + imm)
                  | _ -> None);
                Vsum.s_clobbers = clobbers;
                Vsum.s_ret_val = eax;
                Vsum.s_writes_mem = !writes_mem;
                Vsum.s_returns = true;
                Vsum.s_cycles = rc.Vcost.rc_cycles;
                Vsum.s_stack_bytes = stack_bytes;
                Vsum.s_instrs = rc.Vcost.rc_instrs;
              }
            in
            match acc with None -> Some one | Some a -> Some (Vsum.join a one))
          None !rets
        |> Option.get
    in
    (* Exported entries start a fresh frame with the declared argument
       interval at [esp+4] (tagged region-derived); routines also
       reachable as call targets are analysed with the unconstrained
       frame that covers both roles. *)
    List.iter
      (fun b ->
        if not (List.mem b routine_entries) then
          entry_sums := analyze_routine b ?arg () :: !entry_sums)
      entry_bs;
    List.iter
      (fun b ->
        let s = summary_of b in
        if List.mem b entry_bs then entry_sums := s :: !entry_sums)
      routine_entries
  end;
  (* --- merge observations across routines --------------------------- *)
  let region_lo, region_hi = region in
  let module OMap = Map.Make (struct
    type t = int * bool * int * bool

    let compare = compare
  end) in
  let merged_accs =
    List.fold_left
      (fun m o ->
        List.fold_left
          (fun m (i, w, size, ss, ea) ->
            OMap.update (i, w, size, ss)
              (function None -> Some ea | Some prev -> Some (av_join prev ea))
              m)
          m o.o_accs)
      OMap.empty !obs
  in
  let accesses =
    OMap.fold
      (fun (i, w, size, ss) (ean, eat) acc ->
        let cls = classify ~region ~size ~ss ean in
        {
          a_index = i;
          a_write = w;
          a_size = size;
          a_ea = ean;
          a_taint = eat;
          a_ss = ss;
          a_class = cls;
        }
        :: acc)
      merged_accs []
    |> List.sort (fun a b -> compare (a.a_index, a.a_write) (b.a_index, b.a_write))
  in
  List.iter
    (fun a ->
      if a.a_class = Oob then
        diag ~index:a.a_index Bounds Error "%s of %d byte%s at %a provably outside [%#x, %#x)"
          (if a.a_write then "store" else "load")
          a.a_size
          (if a.a_size = 1 then "" else "s")
          (fun () v -> Fmt.str "%a" Vdomain.pp v)
          a.a_ea region_lo region_hi;
      (* an in-frame store that can reach the return-address slot
         [0, 4) lets the routine redirect its own return *)
      if a.a_write && a.a_ss then
        match a.a_ea with
        | Vdomain.Sp (l, h) when l < 4 && h + a.a_size > 0 ->
            diag ~index:a.a_index Stack
              (if check_stack then Error else Info)
              "store at %a may overwrite the return address"
              (fun () v -> Fmt.str "%a" Vdomain.pp v)
              a.a_ea
        | _ -> ())
    accesses;
  (* Return-site stack discipline, one diagnostic per site. *)
  let merged_rets =
    List.fold_left
      (fun m o ->
        List.fold_left
          (fun m (i, _, esp, _) ->
            IMap.update i
              (function None -> Some esp | Some prev -> Some (av_join prev esp))
              m)
          m o.o_rets)
      IMap.empty !obs
  in
  IMap.iter
    (fun i esp ->
      match fst esp with
      | Vdomain.Sp (0, 0) -> ()
      | v ->
          (* callers that opt out (trusted kernel modules, whose
             non-local exits cross routine frames) still get the
             verdict, just not as an error *)
          diag ~index:i Stack
            (if check_stack then Error else Info)
            "return with unbalanced stack (esp = %s, expected sp+0)"
            (Fmt.str "%a" Vdomain.pp v))
    merged_rets;
  (* --- static gate-abuse pass --------------------------------------- *)
  (* Far-call operands observed by the abstract interpretation are
     checked against the loader's vetted-selector table *now*, not at
     run time.  When every reachable far transfer resolves statically
     the report carries the exact selector set, which the loader feeds
     into the reachability audit ([Audit.Reach]). *)
  let merged_fars =
    List.fold_left
      (fun m o ->
        List.fold_left
          (fun m (i, v) ->
            IMap.update i (function None -> Some v | Some prev -> Some (av_join prev v)) m)
          m o.o_fars)
      IMap.empty !obs
  in
  let far_unknown = ref false in
  let far_sels = ref [] in
  Array.iteri
    (fun i instr ->
      if nb > 0 && reachable.(cfg.Vcfg.block_of.(i)) then
        match instr with
        | Instr.Lcall sel -> far_sels := sel :: !far_sels
        | Instr.Lcall_ind _ -> (
            match IMap.find_opt i merged_fars with
            | Some (Vdomain.Itv (k, k'), _) when k = k' ->
                let sel = k land 0xFFFF in
                if allowed_far sel then begin
                  far_sels := sel :: !far_sels;
                  diag ~index:i Indirect Info
                    "indirect far call resolves statically to vetted selector %#x" sel
                end
                else
                  diag ~index:i Indirect Error
                    "indirect far call resolves statically to unvetted selector %#x" sel
            | _ ->
                far_unknown := true;
                if allow_far_indirect then
                  diag ~index:i Indirect Info "indirect far call (vetted by hardware gates)"
                else diag ~index:i Indirect Error "indirect far call to a computed selector"
            )
        | Instr.Jmp_ind _ | Instr.Call_ind _ ->
            (* the CFG escape also defeats any claim about far targets *)
            far_unknown := true
        | _ -> ())
    cfg.Vcfg.instrs;
  (* Unreachable indirect far calls keep the legacy syntactic lint so
     the policy still sees them. *)
  Array.iteri
    (fun i instr ->
      if nb > 0 && not reachable.(cfg.Vcfg.block_of.(i)) then
        match instr with
        | Instr.Lcall_ind _ ->
            if allow_far_indirect then
              diag ~index:i Indirect Info "indirect far call (vetted by hardware gates)"
            else diag ~index:i Indirect Error "indirect far call to a computed selector"
        | _ -> ())
    cfg.Vcfg.instrs;
  let far_targets = if !far_unknown then None else Some (List.sort_uniq compare !far_sels) in
  (* --- certified resource bounds ------------------------------------ *)
  let r_bounds =
    let loops =
      List.sort (fun a b -> compare a.Vcost.lb_header b.Vcost.lb_header) !all_loops
    in
    match !entry_sums with
    | [] -> if n = 0 then Vcost.zero else { Vcost.unbounded with Vcost.b_loops = loops }
    | sums ->
        let wcet =
          List.fold_left
            (fun acc (s : Vsum.t) ->
              match (acc, s.Vsum.s_cycles) with
              | Vcost.Finite a, Some (_, h) -> Vcost.fin (max a h)
              | _ -> Vcost.Unbounded)
            (Vcost.Finite 0) sums
        in
        let best =
          List.fold_left
            (fun acc (s : Vsum.t) ->
              match s.Vsum.s_cycles with Some (l, _) -> min acc l | None -> 0)
            max_int sums
        in
        let stack =
          List.fold_left
            (fun acc (s : Vsum.t) ->
              match (acc, s.Vsum.s_stack_bytes) with
              | Vcost.Finite a, Some b -> Vcost.fin (max a b)
              | _ -> Vcost.Unbounded)
            (Vcost.Finite 0) sums
        in
        let instrs =
          List.fold_left
            (fun acc (s : Vsum.t) ->
              match (acc, s.Vsum.s_instrs) with
              | Vcost.Finite a, Some b -> Vcost.fin (max a b)
              | _ -> Vcost.Unbounded)
            (Vcost.Finite 0) sums
        in
        {
          Vcost.b_wcet_cycles = wcet;
          Vcost.b_best_cycles = best;
          Vcost.b_max_stack_bytes = stack;
          Vcost.b_max_instrs = instrs;
          Vcost.b_loops = loops;
        }
  in
  {
    r_name = name;
    r_instrs = n;
    r_blocks = nb;
    r_diags = List.rev !diags;
    r_accesses = accesses;
    r_back_edges = n_back;
    r_unreachable = !unreachable;
    r_far_targets = far_targets;
    r_bounds;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let count_class report cls = List.length (List.filter (fun a -> a.a_class = cls) report.r_accesses)

let pp_diag ppf d =
  let sev = match d.d_severity with Info -> "info" | Error -> "ERROR" in
  match d.d_index with
  | Some i -> Fmt.pf ppf "[%s] %s @%d: %s" (check_name d.d_check) sev i d.d_msg
  | None -> Fmt.pf ppf "[%s] %s: %s" (check_name d.d_check) sev d.d_msg

let pp_report ppf r =
  Fmt.pf ppf "verify %s: %s (%d instrs, %d blocks)@." r.r_name
    (if ok r then "OK" else "REJECT")
    r.r_instrs r.r_blocks;
  Fmt.pf ppf "  accesses: %d proved, %d stack-relative, %d runtime-checked, %d out-of-bounds@."
    (count_class r Proved) (count_class r Stack_rel) (count_class r Runtime) (count_class r Oob);
  Fmt.pf ppf "  back edges: %d; unreachable blocks: %d@." r.r_back_edges r.r_unreachable;
  Fmt.pf ppf "  bounds: %a@." Vcost.pp_bounds r.r_bounds;
  (match r.r_far_targets with
  | Some [] -> ()
  | Some sels ->
      Fmt.pf ppf "  far targets (static): %s@."
        (String.concat ", " (List.map (Printf.sprintf "%#x") sels))
  | None -> Fmt.pf ppf "  far targets: not statically known@.");
  List.iter (fun d -> Fmt.pf ppf "  %a@." pp_diag d) r.r_diags

let report_json r =
  let module J = Obs.Json in
  let check_status c =
    if List.exists (fun d -> d.d_severity = Error && d.d_check = c) r.r_diags then "error" else "ok"
  in
  J.Obj
    [
      ("image", J.String r.r_name);
      ("ok", J.Bool (ok r));
      ("instrs", J.Int r.r_instrs);
      ("blocks", J.Int r.r_blocks);
      ("back_edges", J.Int r.r_back_edges);
      ("unreachable_blocks", J.Int r.r_unreachable);
      ("bounds", Vcost.bounds_json r.r_bounds);
      ( "accesses",
        J.Obj
          (List.map
             (fun c -> (class_name c, J.Int (count_class r c)))
             [ Proved; Stack_rel; Runtime; Oob ]) );
      ( "access_table",
        J.List
          (List.map
             (fun a ->
               J.Obj
                 [
                   ("index", J.Int a.a_index);
                   ("write", J.Bool a.a_write);
                   ("size", J.Int a.a_size);
                   ("class", J.String (class_name a.a_class));
                   ("interval", J.String (Fmt.str "%a" Vdomain.pp a.a_ea));
                   ("taint", J.String (Fmt.str "%a" Vtaint.pp a.a_taint));
                   ("ss", J.Bool a.a_ss);
                 ])
             r.r_accesses) );
      ( "far_targets",
        match r.r_far_targets with
        | None -> J.Null
        | Some sels -> J.List (List.map (fun s -> J.Int s) sels) );
      ( "checks",
        J.Obj
          (List.map
             (fun c -> (check_name c, J.String (check_status c)))
             [ Cfg; Bounds; Privileged; Indirect; Stack; Termination ]) );
      ( "diagnostics",
        J.List
          (List.map
             (fun d ->
               J.Obj
                 [
                   ("check", J.String (check_name d.d_check));
                   ("severity", J.String (match d.d_severity with Info -> "info" | Error -> "error"));
                   ("index", match d.d_index with Some i -> J.Int i | None -> J.Null);
                   ("msg", J.String d.d_msg);
                 ])
             r.r_diags) );
    ]

(* ------------------------------------------------------------------ *)
(* Policy and enforcement                                              *)
(* ------------------------------------------------------------------ *)

type policy = Ppolicy.t = Off | Warn | Reject

(* Default Warn: existing workloads (including the fault-injection
   examples, which load deliberately rogue images) keep running, with
   the verdict on stderr and in the counters.  The process default is
   atomic so worlds on different domains read it safely; individual
   worlds override it with a typed [policy option] on their kernel
   (see [effective_policy]). *)
let default_policy : policy Atomic.t = Atomic.make Warn

let policy () = Atomic.get default_policy

let set_policy p = Atomic.set default_policy p

let policy_of_string = Ppolicy.of_string

let policy_name = Ppolicy.name

let effective_policy = function Some p -> p | None -> policy ()

exception Rejected of string * report

let c_images = Obs.Counters.counter "verify.images"

let c_rejected = Obs.Counters.counter "verify.rejected"

let c_warned = Obs.Counters.counter "verify.warned"

let c_proved = Obs.Counters.counter "verify.accesses_proved"

let enforce ~policy ~mechanism report =
  match policy with
  | Off -> ()
  | (Warn | Reject) as p ->
      Obs.Counters.incr c_images;
      Obs.Counters.add c_proved (count_class report Proved);
      if not (ok report) then
        if p = Reject then begin
          Obs.Counters.incr c_rejected;
          raise (Rejected (report.r_name, report))
        end
        else begin
          Obs.Counters.incr c_warned;
          Fmt.epr "palladium-verify[%s]: unsafe image %s:@.%a" mechanism report.r_name
            (fun ppf r -> List.iter (fun d -> Fmt.pf ppf "  %a@." pp_diag d) (errors r))
            report
        end

(* The one load-time admission gate.  Verification runs when either
   policy is on; its verdict goes through [enforce], then, under an
   active budget policy, the certified bounds through [Vcost.enforce]. *)
let admit ~policy:p ~budget ~budget_cycles ~mechanism run =
  let p = effective_policy p and budget = Vcost.effective_policy budget in
  if p = Off && budget = Off then None
  else begin
    let report = run () in
    enforce ~policy:p ~mechanism report;
    if budget <> Off then
      Vcost.enforce ~policy:budget ~budget_cycles ~mechanism ~name:report.r_name
        report.r_bounds;
    Some report
  end

(* ------------------------------------------------------------------ *)
(* SFI integration                                                     *)
(* ------------------------------------------------------------------ *)

let sfi_profile ?entries ?externs ?arg ~region ~name program =
  verify ?entries ?externs ?arg ~region ~lint_privileged:false ~allow_near_indirect:true
    ~allowed_far:(fun _ -> true) ~name program

let cfg_broken report =
  List.exists (fun d -> d.d_severity = Error && d.d_check = Cfg) report.r_diags

(* [proved_instrs ... program] returns a predicate on instruction
   indices (counting [Asm.I] items): true iff *every* memory access of
   that instruction is provably inside [region], so an SFI guard on it
   is redundant.  With [trust_stack], accesses classified [Stack_rel]
   (stack-relative *and* through SS, by construction) also count as
   elidable: they are confined by the stack segment's own limit, the
   same trust SFI already extends to the implicit push/pop traffic it
   leaves unguarded.  Conservative fallbacks: if the CFG does not
   decode, or the program contains indirect near control flow (which
   would invalidate the per-instruction states), nothing is proved. *)
let proved_instrs ?entries ?externs ?arg ?(trust_stack = false) ~region
    (program : Asm.program) =
  let r = sfi_profile ?entries ?externs ?arg ~region ~name:"sfi-proof" program in
  let indirect =
    List.exists (function Asm.I (Instr.Jmp_ind _ | Instr.Call_ind _) -> true | _ -> false) program
  in
  if cfg_broken r || indirect then fun _ -> false
  else begin
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun a ->
        let elidable = a.a_class = Proved || (trust_stack && a.a_class = Stack_rel) in
        let so_far = match Hashtbl.find_opt tbl a.a_index with Some b -> b | None -> true in
        Hashtbl.replace tbl a.a_index (so_far && elidable))
      r.r_accesses;
    fun i -> match Hashtbl.find_opt tbl i with Some true -> true | _ -> false
  end

(* "All stores guarded": every explicit or implicit store in [program]
   must be stack-relative through SS (confined by the stack segment) or
   have an address provably inside [region].  This is the SFI
   containment property — note the *address* must be in the region (a
   word store at the last region byte pokes up to 3 bytes past, exactly
   like the runtime coercion), which is weaker than [Proved] for
   whole-access containment. *)
let sfi_check ?entries ?externs ?arg ~region (program : Asm.program) =
  let lo, hi = region in
  let r = sfi_profile ?entries ?externs ?arg ~region ~name:"sfi-check" program in
  let indirect =
    List.exists (function Asm.I (Instr.Jmp_ind _ | Instr.Call_ind _) -> true | _ -> false) program
  in
  if cfg_broken r then Stdlib.Error "control flow does not decode statically"
  else if indirect then Stdlib.Error "indirect near control flow defeats the analysis"
  else
    let contained a =
      match a.a_ea with
      | Vdomain.Sp _ -> a.a_ss
      | Vdomain.Itv (l, h) -> l >= lo && h < hi
      | Vdomain.Top | Vdomain.Bot -> a.a_ea = Vdomain.Bot
    in
    match List.filter (fun a -> a.a_write && not (contained a)) r.r_accesses with
    | [] -> Stdlib.Ok ()
    | a :: _ ->
        Stdlib.Error
          (Printf.sprintf "instruction %d: store at %s not provably inside [%#x, %#x)" a.a_index
             (Fmt.str "%a" Vdomain.pp a.a_ea) lo hi)
