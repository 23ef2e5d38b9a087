(* Loadable object images: the moral equivalent of an ELF shared
   object for the simulator.  An image has a text section (assembly
   with unresolved label references), initialised data items (each
   named by a symbol), BSS items, a list of imported function symbols
   (calls routed through PLT/GOT at load time) and a list of exported
   symbols. *)

type data_item = {
  d_name : string;
  d_bytes : Bytes.t;
  d_align : int;
}

type bss_item = { b_name : string; b_size : int; b_align : int }

type t = {
  name : string;
  text : Asm.program;
  data : data_item list;
  bss : bss_item list;
  imports : string list; (* function symbols bound through the GOT *)
  exports : string list; (* function symbols offered to others *)
}

(* The symbols an image's text may reference without labelling them:
   its own data and BSS items, then its imports. *)
let own_symbols ~data ~bss ~imports =
  List.map (fun d -> d.d_name) data @ List.map (fun b -> b.b_name) bss @ imports

let create ?(data = []) ?(bss = []) ?(imports = []) ?(exports = []) ~name text
    =
  let check_dup names =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then
          invalid_arg (Printf.sprintf "Image %s: duplicate symbol %s" name n);
        Hashtbl.replace tbl n ())
      names
  in
  check_dup (own_symbols ~data ~bss ~imports);
  { name; text; data; bss; imports; exports }

let externs t =
  let names = own_symbols ~data:t.data ~bss:t.bss ~imports:t.imports in
  fun name -> List.mem name names

let data_item ?(align = 4) name bytes = { d_name = name; d_bytes = bytes; d_align = align }

let data_string ?align name s = data_item ?align name (Bytes.of_string s)

let data_u32s ?align name vals =
  let b = Bytes.create (4 * List.length vals) in
  List.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) vals;
  data_item ?align name b

let bss_item ?(align = 4) name size = { b_name = name; b_size = size; b_align = align }

let text_bytes t = Asm.length_bytes t.text

let data_bytes t =
  let align a n = (n + a - 1) land lnot (a - 1) in
  let after_data =
    List.fold_left
      (fun off d -> align d.d_align off + Bytes.length d.d_bytes)
      0 t.data
  in
  List.fold_left (fun off b -> align b.b_align off + b.b_size) after_data t.bss

(* Layout of the data+bss section at a given base: assigns each symbol
   its address.  Returns (symbol, address, initial bytes option). *)
let layout_data t ~base =
  let align a n = (n + a - 1) land lnot (a - 1) in
  let off = ref 0 in
  let placed_data =
    List.map
      (fun d ->
        off := align d.d_align !off;
        let addr = base + !off in
        off := !off + Bytes.length d.d_bytes;
        (d.d_name, addr, Some d.d_bytes))
      t.data
  in
  let placed_bss =
    List.map
      (fun b ->
        off := align b.b_align !off;
        let addr = base + !off in
        off := !off + b.b_size;
        (b.b_name, addr, None))
      t.bss
  in
  placed_data @ placed_bss
