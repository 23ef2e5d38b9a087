(* Dynamic loader: dlopen / dlsym / dlclose over {!Image.t}, with
   GOT/PLT indirection for imported functions.

   Binding is *eager* (every GOT entry is resolved at load time): lazy
   binding would require the GOT to stay writable, which is exactly
   what Palladium's user-extension mechanism forbids ("the symbols
   within them should be resolved eagerly, not lazily", section 4.4.2).
   The GOT is placed in its own page-aligned region so it can be
   write-protected and PPL-marked independently of its neighbours. *)

type sym_kind = Func | Data

type env = { globals : (string, int * sym_kind) Hashtbl.t }

let create_env () = { globals = Hashtbl.create 64 }

let define env name addr kind = Hashtbl.replace env.globals name (addr, kind)

let lookup env name = Hashtbl.find_opt env.globals name

exception Missing_symbol of string

type handle = {
  h_image : Image.t;
  h_text_base : int;
  h_data_base : int;
  h_got_base : int option;
  h_symbols : (string, int * sym_kind) Hashtbl.t;
  h_areas : Vm_area.t list;
}

type placement = {
  text_kind : Vm_area.kind;
  data_kind : Vm_area.kind;
  text_addr : int option; (* fixed load address for executables *)
}

let shared_library =
  { text_kind = Vm_area.Shared_lib; data_kind = Vm_area.Data; text_addr = None }

let executable =
  {
    text_kind = Vm_area.Text;
    data_kind = Vm_area.Data;
    text_addr = Some X86.Layout.text_base;
  }

let extension_segment =
  { text_kind = Vm_area.Ext_code; data_kind = Vm_area.Ext_data; text_addr = None }

let page_size = X86.Phys_mem.page_size

let got_symbol name = "got$" ^ name

let plt_symbol name = "plt$" ^ name

(* PLT stubs: one jmp-through-GOT slot per import, appended to the
   image text under the import's own name so intra-image calls resolve
   to the stub directly. *)
let plt_stubs (image : Image.t) ~got_base =
  List.concat
    (List.mapi
       (fun i name ->
         [ Asm.L name; Asm.I (Instr.Jmp_ind (Operand.absolute (got_base + (4 * i)))) ])
       image.Image.imports)

let dlopen ?(placement = shared_library) ~(kernel : Kernel.t) ~(task : Task.t)
    ~env (image : Image.t) =
  (* User extensions (extension-segment placement) pass through the
     load-time verifier before any address space is touched.  Only the
     author's text is analysed: the PLT stubs appended below are
     loader-generated [Jmp_ind]s and must not be linted.  Far calls are
     left to the hardware gates ([allowed_far] is universal): at user
     level an unvetted selector faults on its own. *)
  (if placement.text_kind = Vm_area.Ext_code then
     let p = Kernel.policy kernel in
     ignore
       (Verify.admit ~policy:p.verify ~budget:p.budget
          ~budget_cycles:(Kernel.budget_cycles kernel) ~mechanism:"seg_dlopen"
          (fun () ->
            let own = Image.externs image in
            Verify.verify ~entries:image.Image.exports
              ~externs:(fun name -> own name || lookup env name <> None)
              ~region:(0, X86.Layout.user_limit + 1)
              ~allowed_far:(fun _ -> true)
              ~cost_params:(Cpu.params (Kernel.cpu kernel))
              ~name:image.Image.name image.Image.text)));
  let asp = task.Task.asp in
  let n_imports = List.length image.Image.imports in
  (* Region sizes. *)
  let text_bytes =
    Image.text_bytes image + (n_imports * Instr.size) + (2 * Instr.size)
  in
  let data_bytes = max (Image.data_bytes image) 4 in
  (* Allocate the GOT in its own page (write-protectable on its own). *)
  let got_area =
    if n_imports = 0 then None
    else
      Some
        (Address_space.mmap asp ~len:page_size ~perms:Vm_area.rw
           ~label:(image.Image.name ^ ".got") Vm_area.Got)
  in
  let text_area =
    match placement.text_addr with
    | Some addr ->
        Address_space.map_area asp ~va_start:addr ~len:text_bytes
          ~perms:Vm_area.rx ~label:(image.Image.name ^ ".text")
          placement.text_kind
    | None ->
        Address_space.mmap asp ~len:text_bytes ~perms:Vm_area.rx
          ~label:(image.Image.name ^ ".text") placement.text_kind
  in
  let data_area =
    Address_space.mmap asp ~len:data_bytes ~perms:Vm_area.rw
      ~label:(image.Image.name ^ ".data") placement.data_kind
  in
  List.iter (Address_space.populate asp)
    (text_area :: data_area
    :: (match got_area with Some a -> [ a ] | None -> []));
  let text_base = text_area.Vm_area.va_start in
  let data_base = data_area.Vm_area.va_start in
  let got_base = Option.map (fun a -> a.Vm_area.va_start) got_area in
  (* Lay out data symbols and poke initial bytes. *)
  let data_syms = Image.layout_data image ~base:data_base in
  let symbols = Hashtbl.create 32 in
  List.iter
    (fun (name, addr, init) ->
      Hashtbl.replace symbols name (addr, Data);
      match init with
      | Some bytes -> Address_space.poke_bytes asp addr bytes
      | None -> ())
    data_syms;
  (match got_base with
  | Some got ->
      List.iteri
        (fun i name -> Hashtbl.replace symbols (got_symbol name) (got + (4 * i), Data))
        image.Image.imports
  | None -> ());
  (* Assemble text (+ PLT) at its base; data and env symbols resolve
     through [extern]. *)
  let program =
    image.Image.text
    @ (match got_base with Some got -> plt_stubs image ~got_base:got | None -> [])
  in
  let extern name =
    match Hashtbl.find_opt symbols name with
    | Some (addr, _) -> Some addr
    | None -> (
        match lookup env name with Some (addr, _) -> Some addr | None -> None)
  in
  let asm =
    match Asm.assemble ~org:text_base ~extern program with
    | asm -> asm
    | exception Asm.Unresolved s -> raise (Missing_symbol s)
  in
  Code_mem.store_program (Kernel.code kernel) ~addr:text_base asm.Asm.instrs;
  List.iter
    (fun (name, addr) ->
      if not (String.length name > 4 && String.sub name 0 4 = "plt$") then
        Hashtbl.replace symbols name (addr, Func))
    asm.Asm.symbols;
  (* Eager GOT binding, then write-protect the GOT: every symbol is
     resolved now, so nothing legitimate ever writes it again, and an
     extension scribbling on it faults (section 4.4.2). *)
  (match got_area with
  | Some area ->
      let got = area.Vm_area.va_start in
      List.iteri
        (fun i name ->
          match lookup env name with
          | Some (addr, Func) -> Address_space.poke_u32 asp (got + (4 * i)) addr
          | Some (_, Data) | None -> raise (Missing_symbol name))
        image.Image.imports;
      (match
         Address_space.mprotect asp ~addr:got
           ~len:(area.Vm_area.va_end - got) ~perms:Vm_area.ro
       with
      | Ok () -> ()
      | Error _ -> invalid_arg "Dyld: GOT write-protect failed")
  | None -> ());
  (* Publish exports. *)
  List.iter
    (fun name ->
      match Hashtbl.find_opt symbols name with
      | Some (addr, kind) -> define env name addr kind
      | None -> raise (Missing_symbol name))
    image.Image.exports;
  (* Warm the basic-block engine for verified user extensions:
     pre-translate the image text at its CFG block leaders under the
     task's extension code segment.  Counter-free; skipped under the
     interpreter, when the task has no extension segment yet, or when
     the CFG cannot be built. *)
  (match (placement.text_kind, task.Task.ext_cs) with
  | Vm_area.Ext_code, Some ext_cs -> (
      match
        ( Vcfg.build ~org:text_base ~externs:(fun _ -> true) image.Image.text,
          X86.Desc_table.resolve (Kernel.view_for kernel task) ext_cs )
      with
      | cfg, cache ->
          Bexec.pretranslate (Kernel.bexec kernel)
            ~cs:{ X86.Segmentation.selector = ext_cs; cache }
            (Vcfg.block_offsets cfg)
      | exception _ -> ())
  | _ -> ());
  (* The measured dlopen cost on the paper's machine (section 5.1). *)
  Cpu.charge (Kernel.cpu kernel) (Cycles.usec_to_cycles Kcosts.dlopen_usec);
  if Obs.Trace.on () then
    Obs.Trace.emit
      ~cycles:(Cpu.cycles (Kernel.cpu kernel))
      (Obs.Trace.Module_load
         {
           name = image.Image.name;
           mechanism =
             (match placement.text_kind with
             | Vm_area.Ext_code -> "seg_dlopen"
             | _ -> "dlopen");
         });
  {
    h_image = image;
    h_text_base = text_base;
    h_data_base = data_base;
    h_got_base = got_base;
    h_symbols = symbols;
    h_areas =
      (text_area :: data_area
      :: (match got_area with Some a -> [ a ] | None -> []));
  }

let dlsym handle name =
  match Hashtbl.find_opt handle.h_symbols name with
  | Some (addr, _) -> addr
  | None -> raise (Missing_symbol name)

let dlsym_opt handle name =
  Option.map fst (Hashtbl.find_opt handle.h_symbols name)

let dlclose ~(kernel : Kernel.t) ~(task : Task.t) ~env handle =
  if Obs.Trace.on () then
    Obs.Trace.emit
      ~cycles:(Cpu.cycles (Kernel.cpu kernel))
      (Obs.Trace.Module_unload { name = handle.h_image.Image.name });
  List.iter
    (fun (a : Vm_area.t) ->
      ignore
        (Address_space.munmap task.Task.asp ~addr:a.Vm_area.va_start
           ~len:(a.Vm_area.va_end - a.Vm_area.va_start));
      Code_mem.remove_range (Kernel.code kernel) ~addr:a.Vm_area.va_start
        ~len:(a.Vm_area.va_end - a.Vm_area.va_start))
    handle.h_areas;
  (* stale TLB entries would otherwise reach the freed frames *)
  X86.Mmu.flush_tlb (Cpu.mmu (Kernel.cpu kernel));
  List.iter
    (fun name ->
      match lookup env name with
      | Some (addr, _) when Hashtbl.find_opt handle.h_symbols name = Some (addr, Func)
        ->
          Hashtbl.remove env.globals name
      | Some _ | None -> ())
    handle.h_image.Image.exports
