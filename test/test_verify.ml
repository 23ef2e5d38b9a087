(* Tests for the load-time extension verifier: acceptance of every
   shipped image, named rejections for the unsafe classes, robustness
   over random programs, the SFI containment property (including the
   guard sequences for the formerly-escaping instructions) and
   loader-policy integration. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let i x = Asm.I x

let reg r = Operand.Reg r

let imm v = Operand.Imm v

let dref ?disp r = Operand.deref ?disp r

let region = (0, Pconfig.kernel_ext_segment_bytes)

(* Mirror of the loaders' profile: entries from exports, externs from
   the image's own symbol tables. *)
let report_of ?require_termination (image : Image.t) =
  Verify.verify ~entries:image.Image.exports ~externs:(Image.externs image)
    ~region
    ~allowed_far:(fun _ -> true)
    ?require_termination ~name:image.Image.name image.Image.text

let has_error check (r : Verify.report) =
  List.exists
    (fun (d : Verify.diag) ->
      d.Verify.d_check = check && d.Verify.d_severity = Verify.Error)
    r.Verify.r_diags

(* --- acceptance ----------------------------------------------------- *)

let test_shipped_images_accepted () =
  List.iter
    (fun image ->
      let r = report_of image in
      if not (Verify.ok r) then
        Alcotest.failf "%s rejected: %a" image.Image.name Verify.pp_report r)
    [
      Ulib.null_image;
      Ulib.strrev_image;
      Ulib.libc_image;
      Ulib.strlen_client_image;
      Ulib.counter_image;
      Ulib.service_client_image ~slot_addr:0x2000;
      Ulib.work_image ~units:16;
      Ulib.rogue_write_image;
      Ulib.rogue_read_image;
      Ulib.rogue_loop_image;
      Native_compile.image (Filter_expr.canonical 4);
    ]

(* The compiled filter also proves termination (it is branch-forward
   only), which Native_compile.load requires. *)
let test_filter_terminates () =
  let r =
    report_of ~require_termination:true
      (Native_compile.image (Filter_expr.canonical 4))
  in
  check_bool "filter verifies with termination required" true (Verify.ok r)

(* --- the five unsafe classes, each with its named check ------------- *)

let test_rejects_oob_store () =
  let r =
    report_of
      (Image.create ~name:"oob" ~exports:[ "f" ]
         [
           Asm.L "f";
           i (Instr.Mov (reg Reg.EAX, imm (snd region)));
           i (Instr.Mov (dref Reg.EAX, imm 1));
           i Instr.Ret;
         ])
  in
  check_bool "rejected" false (Verify.ok r);
  check_bool "bounds error" true (has_error Verify.Bounds r)

let test_rejects_unknown_target () =
  let r =
    report_of
      (Image.create ~name:"wild" ~exports:[ "f" ]
         [ Asm.L "f"; i (Instr.Jmp (Instr.Label "nowhere")) ])
  in
  check_bool "rejected" false (Verify.ok r);
  check_bool "cfg error" true (has_error Verify.Cfg r);
  (* an absolute branch outside the image is the same class *)
  let r2 = report_of Ulib.rogue_jump_kernel_image in
  check_bool "kernel jump rejected" true (has_error Verify.Cfg r2)

let test_rejects_privileged () =
  let r = report_of Ulib.rogue_syscall_image in
  check_bool "rejected" false (Verify.ok r);
  check_bool "privileged error" true (has_error Verify.Privileged r);
  let r2 =
    report_of
      (Image.create ~name:"sreg" ~exports:[ "f" ]
         [
           Asm.L "f";
           i (Instr.Mov_to_sreg (Reg.DS, reg Reg.EAX));
           i Instr.Ret;
         ])
  in
  check_bool "sreg write rejected" true (has_error Verify.Privileged r2)

let test_rejects_unbalanced_stack () =
  let r =
    report_of
      (Image.create ~name:"leak" ~exports:[ "f" ]
         [ Asm.L "f"; i (Instr.Push (reg Reg.EAX)); i Instr.Ret ])
  in
  check_bool "rejected" false (Verify.ok r);
  check_bool "stack error" true (has_error Verify.Stack r)

let test_rejects_indirect_and_nontermination () =
  let r =
    report_of
      (Image.create ~name:"ind" ~exports:[ "f" ]
         [ Asm.L "f"; i (Instr.Jmp_ind (reg Reg.EAX)) ])
  in
  check_bool "indirect rejected" false (Verify.ok r);
  check_bool "indirect error" true (has_error Verify.Indirect r);
  let r2 = report_of ~require_termination:true Ulib.rogue_loop_image in
  check_bool "loop rejected under termination" false (Verify.ok r2);
  check_bool "termination error" true (has_error Verify.Termination r2)

(* --- robustness: the verifier never raises --------------------------- *)

let arb_program =
  let open QCheck.Gen in
  let any_reg =
    oneofl
      [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI; Reg.EBP; Reg.ESP ]
  in
  let label = oneofl [ "l0"; "l1"; "l2"; "nowhere" ] in
  let operand =
    oneof
      [
        map (fun r -> Operand.Reg r) any_reg;
        map (fun n -> Operand.Imm n) (int_bound 0x10000);
        map2 (fun r d -> Operand.deref ~disp:d r) any_reg (int_bound 4096);
        map Operand.label label;
      ]
  in
  let target =
    oneof
      [
        map (fun l -> Instr.Label l) label;
        map (fun a -> Instr.Abs a) (int_bound 256);
      ]
  in
  let instr =
    oneof
      [
        map2 (fun d s -> Instr.Mov (d, s)) operand operand;
        map (fun o -> Instr.Push o) operand;
        map (fun o -> Instr.Pop o) operand;
        map3
          (fun op d s -> Instr.Alu (op, d, s))
          (oneofl [ Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor ])
          operand operand;
        map2 (fun a b -> Instr.Xchg (a, b)) operand operand;
        map (fun o -> Instr.Neg o) operand;
        map (fun o -> Instr.Not o) operand;
        map (fun t -> Instr.Jmp t) target;
        map2 (fun c t -> Instr.Jcc (c, t)) (oneofl [ Instr.Eq; Instr.Ne ]) target;
        map (fun t -> Instr.Call t) target;
        return Instr.Ret;
        map (fun n -> Instr.Int_ n) (int_bound 255);
        map (fun o -> Instr.Jmp_ind o) operand;
        return Instr.Hlt;
      ]
  in
  let item =
    frequency
      [ (6, map (fun x -> Asm.I x) instr); (1, map (fun l -> Asm.L l) label) ]
  in
  QCheck.make
    ~print:(fun p -> Fmt.str "%d items" (List.length p))
    (list_size (int_bound 40) item)

let prop_never_raises =
  QCheck.Test.make ~count:300 ~name:"verify never raises on random programs"
    arb_program (fun program ->
      let r =
        Verify.verify ~entries:[ "l0" ]
          ~externs:(fun s -> s = "nowhere")
          ~region ~name:"fuzz" program
      in
      ignore (Verify.ok r);
      ignore (Fmt.str "%a" Verify.pp_report r);
      ignore (Verify.report_json r);
      true)

(* --- gamma-soundness of the abstract domains -------------------------- *)

(* Every Vdomain/Vtaint transfer must over-approximate the CPU's
   concrete operation (which masks register writes to 32 bits).  The
   generators produce (abstract, concrete) pairs with the concrete
   value inside the abstraction's concretisation; the properties check
   membership is preserved through each transfer, mirrored exactly as
   the verifier composes them ([wrap32] at every write point). *)

let wrap_limit = 1 lsl 32

let mask32 v = v land (wrap_limit - 1)

let mem_dom v = function
  | Vdomain.Bot -> false
  | Vdomain.Top -> true
  | Vdomain.Itv (l, h) -> l <= v && v <= h
  | Vdomain.Sp _ -> true (* not produced by these generators *)

(* An abstract interval containing [x]: exact, padded, or Top. *)
let gen_dom_for x =
  let open QCheck.Gen in
  let* shape = int_bound 3 in
  match shape with
  | 0 -> return (Vdomain.const x)
  | 1 -> return Vdomain.top
  | _ ->
      let* sl = int_bound 0x10000 in
      let* sh = int_bound 0x10000 in
      return (Vdomain.itv (x - sl) (x + sh))

let gen_dom_pair =
  let open QCheck.Gen in
  let* x = int_bound (wrap_limit - 1) in
  let* a = gen_dom_for x in
  return (a, x)

(* A taint tag whose claimed bound contains [x], paired with a partner
   interval that also contains it — the reduced-product invariant.
   [Const] additionally promises the partner interval is exact. *)
let gen_taint_pair =
  let open QCheck.Gen in
  let* x = int_bound (wrap_limit - 1) in
  let* shape = int_bound 3 in
  let* t, n =
    match shape with
    | 0 ->
        let* n = gen_dom_for x in
        return (Vtaint.untrusted, n)
    | 1 -> return (Vtaint.const, Vdomain.const x)
    | 2 ->
        let* n = gen_dom_for x in
        return (Vtaint.masked (x + 7), n)
    | _ ->
        let* n = gen_dom_for x in
        return (Vtaint.region (max 0 (x - 5)) (x + 5), n)
  in
  return ((t, n), x)

let arb_dom_op =
  QCheck.make
    ~print:(fun ((a, x), (b, y), n) ->
      Fmt.str "a=%a x=%d b=%a y=%d n=%d" Vdomain.pp a x Vdomain.pp b y n)
    QCheck.Gen.(
      let* p1 = gen_dom_pair and* p2 = gen_dom_pair and* n = int_bound 40 in
      return (p1, p2, n))

let prop_vdomain_sound =
  QCheck.Test.make ~count:2000 ~name:"Vdomain transfers over-approximate the CPU"
    arb_dom_op (fun ((a, x), (b, y), n) ->
      let chk op_name abs conc =
        if not (mem_dom conc (Vdomain.wrap32 abs)) then
          QCheck.Test.fail_reportf "%s: %d not in %a (x=%d y=%d)" op_name conc
            Vdomain.pp (Vdomain.wrap32 abs) x y
        else true
      in
      chk "add" (Vdomain.add a b) (mask32 (x + y))
      && chk "sub" (Vdomain.sub a b) (mask32 (x - y))
      && chk "band" (Vdomain.band a b) (x land y)
      && chk "bor" (Vdomain.bor a b) (x lor y)
      && chk "bxor" (Vdomain.bxor a b) (x lxor y)
      && chk "neg" (Vdomain.neg a) (mask32 (-x))
      && chk "shl" (Vdomain.shl a n) (mask32 (x lsl (n land 31)))
      && chk "shr" (Vdomain.shr a n) (x lsr (n land 31))
      && chk "mul" (Vdomain.mul a b) (mask32 (x * y))
      && chk "join" (Vdomain.join a b) x
      && chk "widen" (Vdomain.widen a b) y)

let mem_taint v t =
  match Vtaint.bound t with Some (l, h) -> l <= v && v <= h | None -> true

let arb_taint_op =
  QCheck.make
    ~print:(fun (((t1, n1), x), ((t2, n2), y), n) ->
      Fmt.str "t1=%a n1=%a x=%d t2=%a n2=%a y=%d n=%d" Vtaint.pp t1 Vdomain.pp
        n1 x Vtaint.pp t2 Vdomain.pp n2 y n)
    QCheck.Gen.(
      let* p1 = gen_taint_pair and* p2 = gen_taint_pair and* n = int_bound 40 in
      return (p1, p2, n))

(* The taint properties hold only when each operand's *claimed* bound
   actually contains its concrete value; [gen_taint_pair] guarantees
   the taint side, and we additionally require the partner interval to
   agree (as it does by construction inside the analysis). *)
let prop_vtaint_sound =
  QCheck.Test.make ~count:2000 ~name:"Vtaint transfers over-approximate the CPU"
    arb_taint_op (fun (((t1, n1), x), ((t2, n2), y), n) ->
      let a : Vtaint.opd = (t1, n1) and b : Vtaint.opd = (t2, n2) in
      let chk op_name abs conc =
        if not (mem_taint conc abs) then
          QCheck.Test.fail_reportf "%s: %d escapes %a (x=%d y=%d)" op_name conc
            Vtaint.pp abs x y
        else true
      in
      chk "add" (Vtaint.add a b) (mask32 (x + y))
      && chk "sub" (Vtaint.sub a b) (mask32 (x - y))
      && chk "band" (Vtaint.band a b) (x land y)
      && chk "bor" (Vtaint.bor a b) (x lor y)
      && chk "bxor" (Vtaint.bxor a b) (x lxor y)
      && chk "neg" (Vtaint.neg a) (mask32 (-x))
      && chk "shl" (Vtaint.shl a n) (mask32 (x lsl (n land 31)))
      && chk "shr" (Vtaint.shr a n) (x lsr (n land 31))
      && chk "mul" (Vtaint.mul a b) (mask32 (x * y))
      && chk "join" (Vtaint.join t1 t2) x
      && chk "widen" (Vtaint.widen t1 t2) y)

(* Deterministic witnesses for the native-int overflow class in the
   taint transfers: the unguarded products/shifts wrap mod 2^63 and can
   land back inside [0, 2^32), so the uniform qcheck sampler almost
   never hits them.  mul: bounds [0,0x80000001] x [0,0xFFFFFFFF] give
   ah*bh = 0x7FFFFFFF after 63-bit wrap — a guard comparing the wrapped
   product would claim Masked 0x7FFFFFFF while the concrete
   mask32(1 * 0xC0000000) = 0xC0000000 escapes it.  shl: ah >= 2^31
   shifted by 31 also wraps. *)
let test_taint_overflow_witnesses () =
  let opd t = ((t, Vdomain.top) : Vtaint.opd) in
  let a = opd (Vtaint.masked 0x80000001) in
  let b = opd (Vtaint.masked 0xFFFFFFFF) in
  let conc = mask32 (1 * 0xC0000000) in
  check_bool "mul witness stays in gamma" true
    (match Vtaint.bound (Vtaint.mul a b) with
    | Some (l, h) -> l <= conc && conc <= h
    | None -> true);
  let s = opd (Vtaint.masked 0x80000001) in
  let conc_shl = mask32 (0x80000001 lsl 31) in
  check_bool "shl witness stays in gamma" true
    (match Vtaint.bound (Vtaint.shl s 31) with
    | Some (l, h) -> l <= conc_shl && conc_shl <= h
    | None -> true)

(* --- call summaries --------------------------------------------------- *)

let test_vsum_join () =
  let a =
    {
      Vsum.s_esp_delta = Some (0, 0);
      s_clobbers = Array.init Reg.count (fun i -> i = Reg.index Reg.EAX);
      s_ret_val = (Vdomain.const 5, Vtaint.const);
      s_writes_mem = false;
      s_returns = true;
      s_cycles = Some (3, 10);
      s_stack_bytes = Some 8;
      s_instrs = Some 4;
    }
  in
  let b =
    {
      Vsum.s_esp_delta = Some (4, 4);
      s_clobbers = Array.init Reg.count (fun i -> i = Reg.index Reg.EBX);
      s_ret_val = (Vdomain.const 9, Vtaint.const);
      s_writes_mem = true;
      s_returns = true;
      s_cycles = Some (5, 20);
      s_stack_bytes = Some 4;
      s_instrs = None;
    }
  in
  let j = Vsum.join a b in
  check_bool "delta band" true (j.Vsum.s_esp_delta = Some (0, 4));
  check_bool "cycle band joined" true (j.Vsum.s_cycles = Some (3, 20));
  check_bool "stack band joined" true (j.Vsum.s_stack_bytes = Some 8);
  check_bool "instr top sticky" true (j.Vsum.s_instrs = None);
  check_bool "eax clobbered" true j.Vsum.s_clobbers.(Reg.index Reg.EAX);
  check_bool "ebx clobbered" true j.Vsum.s_clobbers.(Reg.index Reg.EBX);
  check_bool "ecx untouched" false j.Vsum.s_clobbers.(Reg.index Reg.ECX);
  check_bool "ret val joined" true
    (Vdomain.equal (fst j.Vsum.s_ret_val) (Vdomain.itv 5 9));
  check_bool "writes-mem sticky" true j.Vsum.s_writes_mem;
  check_bool "no-return absorbs" true
    (Vsum.join a Vsum.no_return).Vsum.s_returns

(* A stdcall callee ([ret 4]) balances its caller's argument push: the
   caller's own [ret] must see the entry depth, which only works if the
   call site applies the callee's summary rather than a havoc. *)
let test_stdcall_summary_balances () =
  let r =
    report_of
      (Image.create ~name:"stdcall" ~exports:[ "f" ]
         [
           Asm.L "f";
           i (Instr.Push (imm 0x123));
           i (Instr.Call (Instr.Label "callee"));
           i Instr.Ret;
           Asm.L "callee";
           i (Instr.Mov (reg Reg.EAX, imm 5));
           i (Instr.Ret_imm 4);
         ])
  in
  if not (Verify.ok r) then Alcotest.failf "stdcall rejected: %a" Verify.pp_report r

let class_at (r : Verify.report) idx =
  match
    List.find_opt (fun (a : Verify.access) -> a.Verify.a_index = idx) r.Verify.r_accesses
  with
  | Some a -> a.Verify.a_class
  | None -> Alcotest.failf "no access recorded at instr %d" idx

(* The callee's summary carries its return-value interval and its
   clobber set: EAX's post-call constant proves a load, and a register
   the callee never touches keeps the caller's value. *)
let test_summary_retval_and_clobbers () =
  let r =
    Verify.verify ~entries:[ "g" ] ~region:(0, 4096) ~name:"retval"
      [
        Asm.L "g";
        i (Instr.Call (Instr.Label "five")); (* 0 *)
        i (Instr.Mov (reg Reg.EBX, dref ~disp:0x100 Reg.EAX)); (* 1 *)
        i Instr.Ret; (* 2 *)
        Asm.L "five";
        i (Instr.Mov (reg Reg.EAX, imm 5)); (* 3 *)
        i Instr.Ret; (* 4 *)
      ]
  in
  check_bool "retval program verifies" true (Verify.ok r);
  check_bool "load through returned EAX proved" true (class_at r 1 = Verify.Proved);
  let r2 =
    Verify.verify ~entries:[ "h" ] ~region:(0, 4096) ~name:"clobber"
      [
        Asm.L "h";
        i (Instr.Mov (reg Reg.EBX, imm 0x10)); (* 0 *)
        i (Instr.Call (Instr.Label "noop")); (* 1 *)
        i (Instr.Mov (reg Reg.ECX, dref Reg.EBX)); (* 2 *)
        i Instr.Ret; (* 3 *)
        Asm.L "noop";
        i (Instr.Mov (reg Reg.EAX, imm 7)); (* 4 *)
        i Instr.Ret; (* 5 *)
      ]
  in
  check_bool "unclobbered base survives the call" true
    (class_at r2 2 = Verify.Proved)

(* The S1 pattern: a masked index inside a loop.  Interval widening
   blows the induction variable to the saturation bound, but the
   re-applied mask is a loop-invariant taint fact, so the reduced
   product recovers the finite bound and proves the access. *)
let test_masked_loop_proved () =
  let r =
    Verify.verify ~entries:[ "f" ] ~region:(0, 0x1000) ~name:"maskloop"
      [
        Asm.L "f";
        i (Instr.Mov (reg Reg.EAX, imm 0)); (* 0 *)
        Asm.L "lp";
        i (Instr.Alu (Instr.Add, reg Reg.EAX, imm 1)); (* 1 *)
        i (Instr.Alu (Instr.And, reg Reg.EAX, imm 0xff)); (* 2 *)
        i (Instr.Movb (reg Reg.EBX, dref ~disp:0x100 Reg.EAX)); (* 3 *)
        i (Instr.Cmp (reg Reg.EBX, imm 0)); (* 4 *)
        i (Instr.Jcc (Instr.Ne, Instr.Label "lp")); (* 5 *)
        i Instr.Ret; (* 6 *)
      ]
  in
  check_bool "masked loop verifies" true (Verify.ok r);
  check_bool "masked-index load proved inside the loop" true
    (class_at r 3 = Verify.Proved)

(* --- static gate-operand lint ----------------------------------------- *)

let gate_sel = X86.Selector.(encode (make ~rpl:X86.Privilege.R1 5))

let lcall_const_prog =
  [
    Asm.L "f";
    i (Instr.Mov (reg Reg.EAX, imm gate_sel));
    i (Instr.Lcall_ind (reg Reg.EAX));
    i Instr.Ret;
  ]

let test_gate_operand_lint () =
  (* vetted constant selector: accepted, and exported as the static
     far-target set the loader feeds to the reachability audit *)
  let ok_r =
    Verify.verify ~entries:[ "f" ]
      ~allowed_far:(fun s -> s = gate_sel)
      ~name:"gate-ok" lcall_const_prog
  in
  check_bool "vetted static selector accepted" true (Verify.ok ok_r);
  check_bool "far targets exported" true
    (ok_r.Verify.r_far_targets = Some [ gate_sel land 0xFFFF ]);
  (* the same program against an empty gate table: a static error even
     though far-indirect calls are allowed in general *)
  let bad_r =
    Verify.verify ~entries:[ "f" ]
      ~allowed_far:(fun _ -> false)
      ~allow_far_indirect:true ~name:"gate-bad" lcall_const_prog
  in
  check_bool "unvetted static selector rejected" false (Verify.ok bad_r);
  check_bool "indirect error" true (has_error Verify.Indirect bad_r);
  (* a genuinely dynamic operand stays a run-time matter: no static
     far-target set for the loader *)
  let dyn_r =
    Verify.verify ~entries:[ "f" ]
      ~allowed_far:(fun _ -> false)
      ~name:"gate-dyn"
      [
        Asm.L "f";
        i (Instr.Mov (reg Reg.EAX, dref ~disp:0x40 Reg.EBX));
        i (Instr.Lcall_ind (reg Reg.EAX));
        i Instr.Ret;
      ]
  in
  check_bool "dynamic selector tolerated" true (Verify.ok dyn_r);
  check_bool "no static far-target set" true (dyn_r.Verify.r_far_targets = None)

(* --- SFI regression: the formerly-escaping stores -------------------- *)

(* Each of these stores through an address provably outside the
   region; the raw program must fail the containment check and the
   rewritten one must pass it (the fix for the Xchg/Neg/Not/Pop escape
   in the original rewriter). *)
let test_sfi_containment_regression () =
  let sfi_region = { Sfi.base = 0; size = 4096 } in
  let vregion = (0, 4096) in
  let escape body = [ Asm.L "f"; i (Instr.Mov (reg Reg.EAX, imm 0x100000)) ] @ body @ [ i Instr.Ret ] in
  List.iter
    (fun (name, body) ->
      let raw = escape body in
      (match Verify.sfi_check ~entries:[ "f" ] ~region:vregion raw with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: raw escape not caught" name);
      let rewritten = Sfi.rewrite_program Sfi.Write_only sfi_region raw in
      match Verify.sfi_check ~entries:[ "f" ] ~region:vregion rewritten with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: rewritten still escapes: %s" name msg)
    [
      ("mov", [ i (Instr.Mov (dref Reg.EAX, imm 1)) ]);
      ("xchg", [ i (Instr.Xchg (dref Reg.EAX, reg Reg.EBX)) ]);
      ("neg", [ i (Instr.Neg (dref Reg.EAX)) ]);
      ("not", [ i (Instr.Not (dref Reg.EAX)) ]);
      ("pop", [ i (Instr.Push (reg Reg.EBX)); i (Instr.Pop (dref Reg.EAX)) ]);
    ]

(* Execution equivalence of the new guard sequences: a module mixing
   neg/not/xchg/push-mem/pop-mem computes the same value raw and
   sandboxed (full-width region: coercion is the identity). *)
let test_guard_sequences_execute () =
  let k = Kernel.boot () in
  let task = Kernel.create_task k ~name:"t" in
  let image name =
    Image.create ~name
      ~bss:[ Image.bss_item ~align:4096 "buf" 4096 ]
      ~exports:[ "mix" ]
      [
        Asm.L "mix";
        i (Instr.Mov (reg Reg.EDX, dref ~disp:4 Reg.ESP));
        i (Instr.Mov (dref Reg.EDX, imm 5));
        i (Instr.Neg (dref Reg.EDX));
        i (Instr.Not (dref Reg.EDX)); (* -5 notted = 4 *)
        i (Instr.Mov (reg Reg.EBX, imm 7));
        i (Instr.Xchg (dref Reg.EDX, reg Reg.EBX)); (* mem=7, ebx=4 *)
        i (Instr.Push (dref Reg.EDX)); (* push 7 *)
        i (Instr.Pop (dref ~disp:4 Reg.EDX)); (* mem+4 = 7 *)
        i (Instr.Mov (reg Reg.EAX, dref Reg.EDX)); (* 7 *)
        i (Instr.Alu (Instr.Add, reg Reg.EAX, reg Reg.EBX)); (* 11 *)
        i (Instr.Alu (Instr.Add, reg Reg.EAX, dref ~disp:4 Reg.EDX)); (* 18 *)
        i Instr.Ret;
      ]
  in
  let run image =
    let km = Kmod.insmod k image in
    match Kmod.invoke km task ~fn:"mix" ~arg:(Kmod.symbol km "buf") with
    | Kernel.Completed, v, _ -> v
    | _ -> Alcotest.fail "mix run failed"
  in
  let raw = run (image "mixraw") in
  check_int "raw result" 18 raw;
  let sandboxed =
    run
      (Sfi.sandbox_image Sfi.Read_write
         { Sfi.base = 0; size = 1 lsl 30 }
         (image "mixsfi"))
  in
  check_int "sandboxed result equals raw" raw sandboxed

(* --- verified elision ------------------------------------------------ *)

let test_verified_elides_guards () =
  let text = Native_compile.filter_text (Filter_expr.canonical 4) in
  let sfi_region = { Sfi.base = 0; size = 1 lsl 30 } in
  let arg = (0, (1 lsl 30) - 4096) in
  let full =
    Sfi.inserted_instructions ~entries:[ "filter" ] ~arg ~region:sfi_region
      Sfi.Read_write text
  in
  let verified =
    Sfi.inserted_instructions ~mode:Sfi.Verified ~entries:[ "filter" ] ~arg
      ~region:sfi_region Sfi.Read_write text
  in
  check_bool "guards elided" true (verified < full);
  check_bool "still some guards" true (verified >= 0)

(* The headline result, pinned: with taint tracking the verifier
   discharges every guard in the compiled packet filter.  Mirrors the
   bench sfi configuration (2 KiB packet buffer at the segment base). *)
let test_filter_full_elision () =
  let text = Native_compile.filter_text (Filter_expr.canonical 4) in
  let sfi_region = { Sfi.base = 0; size = 1 lsl 30 } in
  let arg = (0, (1 lsl 30) - 2048) in
  let full =
    Sfi.inserted_instructions ~entries:[ "filter" ] ~arg ~region:sfi_region
      Sfi.Read_write text
  in
  let verified =
    Sfi.inserted_instructions ~mode:Sfi.Verified ~entries:[ "filter" ] ~arg
      ~region:sfi_region Sfi.Read_write text
  in
  check_int "unverified guard count" 55 full;
  check_int "every guard elided" 0 verified

(* --- loader integration under the Reject policy ---------------------- *)

let with_policy p f =
  let saved = Verify.policy () in
  Fun.protect
    ~finally:(fun () -> Verify.set_policy saved)
    (fun () ->
      Verify.set_policy p;
      f ())

let test_reject_policy_loaders () =
  with_policy Verify.Reject (fun () ->
      (* classic module path *)
      let k = Kernel.boot () in
      ignore (Kmod.insmod k Ulib.strrev_image);
      (* extension segment path: good module loads, rogue raises *)
      let w = Palladium.boot () in
      let seg = Palladium.create_kernel_segment w in
      ignore (Kernel_ext.insmod seg Ulib.counter_image);
      (match Kernel_ext.insmod seg Ulib.rogue_syscall_image with
      | _ -> Alcotest.fail "rogue syscall module should have been rejected"
      | exception Verify.Rejected (name, r) ->
          check_bool "rejection names the image" true (name = "roguesys");
          check_bool "privileged diag attached" true
            (has_error Verify.Privileged r));
      (* the compiled filter still loads: its termination proof holds *)
      let seg2 = Palladium.create_kernel_segment w in
      let task = Kernel.create_task (Palladium.kernel w) ~name:"netd" in
      let nf = Native_compile.load seg2 (Filter_expr.canonical 2) in
      let pkt = Packet.to_bytes (Pkt_gen.matching_packet ()) in
      match Native_compile.run nf task ~packet:pkt with
      | Ok (v, _) -> check_int "filter accepts the target packet" 1 v
      | Error e -> Alcotest.failf "filter run: %a" Kernel_ext.pp_invoke_error e)

let test_off_policy_skips () =
  with_policy Verify.Off (fun () ->
      (* a statically-rejected image loads when verification is off —
         run-time protection is then the only line of defence *)
      let w = Palladium.boot () in
      let seg = Palladium.create_kernel_segment w in
      ignore (Kernel_ext.insmod seg Ulib.rogue_syscall_image))

let () =
  Alcotest.run "verify"
    [
      ( "acceptance",
        [
          Alcotest.test_case "all shipped images verify" `Quick
            test_shipped_images_accepted;
          Alcotest.test_case "compiled filter proves termination" `Quick
            test_filter_terminates;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "out-of-bounds store" `Quick test_rejects_oob_store;
          Alcotest.test_case "unknown control-flow target" `Quick
            test_rejects_unknown_target;
          Alcotest.test_case "privileged instruction" `Quick
            test_rejects_privileged;
          Alcotest.test_case "unbalanced stack" `Quick
            test_rejects_unbalanced_stack;
          Alcotest.test_case "indirect flow and non-termination" `Quick
            test_rejects_indirect_and_nontermination;
        ] );
      ( "robustness",
        [ QCheck_alcotest.to_alcotest prop_never_raises ] );
      ( "gamma-soundness",
        [
          QCheck_alcotest.to_alcotest prop_vdomain_sound;
          QCheck_alcotest.to_alcotest prop_vtaint_sound;
          Alcotest.test_case "taint transfer overflow witnesses" `Quick
            test_taint_overflow_witnesses;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "Vsum.join" `Quick test_vsum_join;
          Alcotest.test_case "stdcall callee balances the caller" `Quick
            test_stdcall_summary_balances;
          Alcotest.test_case "return value and clobber set" `Quick
            test_summary_retval_and_clobbers;
        ] );
      ( "taint",
        [
          Alcotest.test_case "masked index proved inside a loop" `Quick
            test_masked_loop_proved;
        ] );
      ( "gates",
        [ Alcotest.test_case "gate-operand lint" `Quick test_gate_operand_lint ] );
      ( "sfi",
        [
          Alcotest.test_case "containment regression" `Quick
            test_sfi_containment_regression;
          Alcotest.test_case "guard sequences execute correctly" `Quick
            test_guard_sequences_execute;
          Alcotest.test_case "verified mode elides guards" `Quick
            test_verified_elides_guards;
          Alcotest.test_case "packet filter fully elides" `Quick
            test_filter_full_elision;
        ] );
      ( "policy",
        [
          Alcotest.test_case "Reject gates the loaders" `Quick
            test_reject_policy_loaders;
          Alcotest.test_case "Off skips verification" `Quick
            test_off_policy_skips;
        ] );
    ]
