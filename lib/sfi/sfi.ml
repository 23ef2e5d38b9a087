(* Software fault isolation (Wahbe et al., SOSP '93) — the
   software-only baseline the paper argues against in sections 2.1 and
   2.3.  The rewriter sandboxes an extension by coercing the effective
   address of every guarded access into the extension's region:

       lea   scratch, [addr]
       and   scratch, mask        ; keep the offset bits
       or    scratch, base        ; force the region bits
       op    [scratch], ...

   The region must be power-of-two sized and aligned so that legal
   addresses are unchanged (and illegal ones are *coerced* inside, not
   trapped — SFI's semantics).  Because the guarded code may use every
   register, the scratch register is spilled around each guarded
   access; this models the non-dedicated-register variant, at the
   expensive end of the 1-220% overhead range reported for SFI.

   [Verified] mode consults the load-time verifier
   ([Verify.proved_instrs]) and skips the guard on every instruction
   whose memory accesses are statically proven inside the region — the
   measurable payoff of static checking over blanket instrumentation
   (see bench `sfi`). *)

type policy = Write_only | Read_write

type mode = Full | Verified

type region = { base : int; size : int }

let check_region { base; size } =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Sfi: region size must be a power of two";
  if base land (size - 1) <> 0 then
    invalid_arg "Sfi: region base must be size-aligned"

let mask { size; _ } = size - 1

(* The scratch register used for address coercion, and the fallback
   when the guarded instruction itself reads the primary scratch (a
   guard that clobbered an operand register would store the coerced
   address instead of the value, or restore the spill over a load's
   result). *)
let scratch = Reg.EDI

let scratch2 = Reg.ESI

let operand_reads (o : Operand.t) r =
  match o with
  | Operand.Reg r' -> r' = r
  | Operand.Mem m -> (
      m.Operand.base = Some r
      || match m.Operand.index with Some (ir, _) -> ir = r | None -> false)
  | Operand.Imm _ | Operand.Sym _ -> false

let pick_scratch others =
  let used r = List.exists (fun o -> operand_reads o r) others in
  if not (used scratch) then scratch
  else if not (used scratch2) then scratch2
  else invalid_arg "Sfi: guarded instruction uses both scratch registers"

(* [esp_spill] is the number of bytes the guard has pushed below the
   original ESP by the time the effective address is formed:
   ESP-relative addresses must be rebased past the spills. *)
let rebase_esp esp_spill (m : Operand.mem) =
  match m.Operand.base with
  | Some Reg.ESP -> { m with Operand.disp = m.Operand.disp + esp_spill }
  | Some _ | None -> m

let coerce region scratch (m : Operand.mem) ~esp_spill =
  let open Asm in
  [
    I (Instr.Lea (scratch, rebase_esp esp_spill m));
    I (Instr.Alu (Instr.And, Operand.Reg scratch, Operand.Imm (mask region)));
    I (Instr.Alu (Instr.Or, Operand.Reg scratch, Operand.Imm region.base));
  ]

let guard ?(scratch = scratch) region (m : Operand.mem) op_builder =
  let open Asm in
  (I (Instr.Push (Operand.Reg scratch)) :: coerce region scratch m ~esp_spill:4)
  @ op_builder (Operand.deref scratch)
  @ [ I (Instr.Pop (Operand.Reg scratch)) ]

let is_mem = function Operand.Mem _ -> true | _ -> false

let mem_of = function Operand.Mem m -> m | _ -> assert false

(* Rewrite one instruction.  Guarded: stores always (including the
   read-modify-write family and [pop mem]); loads under [Read_write]
   (including [push mem] — its implicit store goes to the stack, which
   SFI trusts, but its explicit operand is a load).  Control transfers
   inside an image resolve to local labels, so indirect-jump
   sandboxing is handled by rejecting indirect control flow entirely
   (like SFI's RISC restriction). *)
let rewrite_instr policy region (instr : Instr.t) : Asm.item list =
  let open Asm in
  let guard_write = true in
  let guard_read = policy = Read_write in
  match instr with
  | Instr.Mov (dst, src) when is_mem dst && guard_write ->
      guard ~scratch:(pick_scratch [ src ]) region (mem_of dst) (fun slot ->
          [ I (Instr.Mov (slot, src)) ])
  | Instr.Mov (dst, src) when is_mem src && guard_read ->
      guard ~scratch:(pick_scratch [ dst ]) region (mem_of src) (fun slot ->
          [ I (Instr.Mov (dst, slot)) ])
  | Instr.Movb (dst, src) when is_mem dst && guard_write ->
      guard ~scratch:(pick_scratch [ src ]) region (mem_of dst) (fun slot ->
          [ I (Instr.Movb (slot, src)) ])
  | Instr.Movb (dst, src) when is_mem src && guard_read ->
      guard ~scratch:(pick_scratch [ dst ]) region (mem_of src) (fun slot ->
          [ I (Instr.Movb (dst, slot)) ])
  | Instr.Inc o when is_mem o && guard_write ->
      guard region (mem_of o) (fun slot -> [ I (Instr.Inc slot) ])
  | Instr.Dec o when is_mem o && guard_write ->
      guard region (mem_of o) (fun slot -> [ I (Instr.Dec slot) ])
  | Instr.Neg o when is_mem o && guard_write ->
      guard region (mem_of o) (fun slot -> [ I (Instr.Neg slot) ])
  | Instr.Not o when is_mem o && guard_write ->
      guard region (mem_of o) (fun slot -> [ I (Instr.Not slot) ])
  | Instr.Shl (o, n) when is_mem o && guard_write ->
      guard region (mem_of o) (fun slot -> [ I (Instr.Shl (slot, n)) ])
  | Instr.Shr (o, n) when is_mem o && guard_write ->
      guard region (mem_of o) (fun slot -> [ I (Instr.Shr (slot, n)) ])
  | Instr.Alu (op, dst, src) when is_mem dst && guard_write ->
      guard ~scratch:(pick_scratch [ src ]) region (mem_of dst) (fun slot ->
          [ I (Instr.Alu (op, slot, src)) ])
  | Instr.Alu (op, dst, src) when is_mem src && guard_read ->
      guard ~scratch:(pick_scratch [ dst ]) region (mem_of src) (fun slot ->
          [ I (Instr.Alu (op, dst, slot)) ])
  | Instr.Xchg (a, b) when is_mem a && is_mem b ->
      (* the CPU rejects this encoding; never let it slip through with
         one side unguarded *)
      invalid_arg "Sfi: xchg with two memory operands"
  | Instr.Xchg (a, b) when (is_mem a || is_mem b) && guard_write ->
      let m, other = if is_mem a then (mem_of a, b) else (mem_of b, a) in
      guard ~scratch:(pick_scratch [ other ]) region m (fun slot ->
          [ I (Instr.Xchg (slot, other)) ])
  | Instr.Cmp (a, b) when is_mem a && guard_read ->
      guard ~scratch:(pick_scratch [ b ]) region (mem_of a) (fun slot ->
          [ I (Instr.Cmp (slot, b)) ])
  | Instr.Cmp (a, b) when is_mem b && guard_read ->
      guard ~scratch:(pick_scratch [ a ]) region (mem_of b) (fun slot ->
          [ I (Instr.Cmp (a, slot)) ])
  | Instr.Test (a, b) when is_mem a && guard_read ->
      guard ~scratch:(pick_scratch [ b ]) region (mem_of a) (fun slot ->
          [ I (Instr.Test (slot, b)) ])
  | Instr.Test (a, b) when is_mem b && guard_read ->
      guard ~scratch:(pick_scratch [ a ]) region (mem_of b) (fun slot ->
          [ I (Instr.Test (a, slot)) ])
  | Instr.Imul (r, o) when is_mem o && guard_read ->
      guard ~scratch:(pick_scratch [ Operand.Reg r ]) region (mem_of o)
        (fun slot -> [ I (Instr.Imul (r, slot)) ])
  | Instr.Push o when is_mem o && guard_read ->
      (* load the value through the coerced address, then swap it with
         the spilled scratch so the net effect is push-of-value with
         scratch restored:
           push scratch; lea/and/or; mov scratch, [scratch];
           xchg scratch, [esp] *)
      (I (Instr.Push (Operand.Reg scratch))
      :: coerce region scratch (mem_of o) ~esp_spill:4)
      @ [
          I (Instr.Mov (Operand.Reg scratch, Operand.deref scratch));
          I (Instr.Xchg (Operand.Reg scratch, Operand.mem ~base:Reg.ESP ()));
        ]
  | Instr.Pop o when is_mem o && guard_write ->
      (* pop stores through an arbitrary effective address: spill both
         scratches, coerce the address, copy the original top-of-stack
         through it, then unwind — the trailing add completes the pop *)
      (List.map (fun r -> I (Instr.Push (Operand.Reg r))) [ scratch2; scratch ]
      @ coerce region scratch (mem_of o) ~esp_spill:8)
      @ [
          I
            (Instr.Mov
               (Operand.Reg scratch2, Operand.mem ~base:Reg.ESP ~disp:8 ()));
          I (Instr.Mov (Operand.deref scratch, Operand.Reg scratch2));
          I (Instr.Pop (Operand.Reg scratch));
          I (Instr.Pop (Operand.Reg scratch2));
          I (Instr.Alu (Instr.Add, Operand.Reg Reg.ESP, Operand.Imm 4));
        ]
  | Instr.Jmp_ind _ | Instr.Call_ind _ ->
      invalid_arg "Sfi: indirect control flow is not sandboxable"
  | other -> [ I other ]

let rewrite_program ?(mode = Full) ?entries ?externs ?arg policy region
    (program : Asm.program) : Asm.program =
  check_region region;
  let proved =
    match mode with
    | Full -> fun _ -> false
    | Verified ->
        (* SS-confined stack-relative accesses are elided too: SFI
           already trusts the implicit push/pop traffic it leaves
           unguarded, and the soundness oracle exercises exactly this
           elision dynamically (bench soundness). *)
        Verify.proved_instrs ?entries ?externs ?arg ~trust_stack:true
          ~region:(region.base, region.base + region.size)
          program
  in
  let idx = ref (-1) in
  List.concat_map
    (function
      | Asm.L _ as l -> [ l ]
      | Asm.I instr ->
          incr idx;
          if proved !idx then [ Asm.I instr ]
          else rewrite_instr policy region instr)
    program

(* Sandbox a whole image's text.  In [Verified] mode the verifier gets
   the image's externs (imports + data symbols) so its CFG decodes. *)
let sandbox_image ?mode ?arg policy region (image : Image.t) =
  Image.create
    ~name:(image.Image.name ^ "-sfi")
    ~data:image.Image.data ~bss:image.Image.bss ~imports:image.Image.imports
    ~exports:image.Image.exports
    (rewrite_program ?mode ~entries:image.Image.exports
       ~externs:(Image.externs image) ?arg policy
       region image.Image.text)

(* Static instruction-count overhead (guards inserted per guarded
   access), for reporting alongside measured cycle overhead. *)
let inserted_instructions ?mode ?entries ?externs ?arg
    ?(region = { base = 0; size = 1 lsl 20 }) policy program =
  let rewritten =
    rewrite_program ?mode ?entries ?externs ?arg policy region program
  in
  let count p =
    List.length (List.filter (function Asm.I _ -> true | Asm.L _ -> false) p)
  in
  count rewritten - count program
