(* Classic (unprotected) loadable kernel modules — what stock Linux
   insmod does: "a loadable kernel module, once loaded, is effectively
   part of the kernel" (section 4.3).  This is the baseline Palladium
   improves on: module code runs at SPL 0 with full access to the
   kernel address space, and the Figure 7 BPF interpreter runs through
   this path (the in-kernel bpf_filter function is ordinary kernel
   code). *)

type t = {
  kernel : Kernel.t;
  name : string;
  text_off : int; (* kernel-segment offset *)
  symbols : (string, int) Hashtbl.t; (* symbol -> kernel-segment offset *)
}

let kernel t = t.kernel

(* Load an image into kernel memory proper: text and data are
   addressed through the normal kernel segments.

   Kmod code *is* kernel code (that is the baseline's whole problem),
   so verification runs with a permissive profile: no privileged-
   instruction lint, indirect near transfers allowed, the full kernel
   window as the region.  CFG decode and stack discipline still apply,
   which catches plainly malformed modules at load time. *)
let insmod kernel (image : Image.t) =
  (* A classic module becomes part of the kernel — no watchdog ever
     bounds it at run time, so admission is the only gate there is. *)
  (let p = Kernel.policy kernel in
   ignore
     (Verify.admit ~policy:p.verify ~budget:p.budget
        ~budget_cycles:(Kernel.budget_cycles kernel) ~mechanism:"insmod"
        (fun () ->
          Verify.verify ~entries:image.Image.exports
            ~externs:(Image.externs image)
            ~region:(0, X86.Layout.kernel_limit + 1)
            ~allowed_far:(fun _ -> true)
            ~allow_near_indirect:true ~lint_privileged:false
            ~check_stack:false
            ~cost_params:(Cpu.params (Kernel.cpu kernel))
            ~name:image.Image.name image.Image.text)));
  let text_bytes = Asm.length_bytes image.Image.text in
  let data_bytes = max (Image.data_bytes image) 4 in
  let text_linear = Kernel.kalloc kernel ~bytes:text_bytes in
  let data_linear = Kernel.kalloc kernel ~bytes:data_bytes in
  let text_off = Kernel.koffset text_linear in
  let data_off = Kernel.koffset data_linear in
  let symbols = Hashtbl.create 32 in
  let data_syms = Image.layout_data image ~base:data_off in
  List.iter
    (fun (name, off, init) ->
      Hashtbl.replace symbols name off;
      match init with
      | Some bytes -> Kernel.kpoke_bytes kernel (Kernel.klinear off) bytes
      | None -> ())
    data_syms;
  let extern name = Hashtbl.find_opt symbols name in
  let asm = Asm.assemble ~org:text_off ~extern image.Image.text in
  Code_mem.store_program (Kernel.code kernel) ~addr:text_linear asm.Asm.instrs;
  List.iter (fun (n, off) -> Hashtbl.replace symbols n off) asm.Asm.symbols;
  if Obs.Trace.on () then
    Obs.Trace.emit
      ~cycles:(Cpu.cycles (Kernel.cpu kernel))
      (Obs.Trace.Module_load
         { name = image.Image.name; mechanism = "insmod" });
  { kernel; name = image.Image.name; text_off; symbols }

let symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some off -> off
  | None -> raise (Asm.Unresolved name)

let symbol_linear t name = Kernel.klinear (symbol t name)

(* Call a module function directly at CPL 0 — no protection boundary,
   the whole point of the comparison. *)
let invoke t task ~fn ~arg =
  Kernel.kernel_invoke t.kernel task ~fn_offset:(symbol t fn) ~arg

let poke t ~symbol:name ~off bytes =
  Kernel.kpoke_bytes t.kernel (symbol_linear t name + off) bytes

let poke_u32 t ~symbol:name ~off v =
  Kernel.kpoke_u32 t.kernel (symbol_linear t name + off) v

let peek_u32 t ~symbol:name ~off =
  Kernel.kpeek_u32 t.kernel (symbol_linear t name + off)
