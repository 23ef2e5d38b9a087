(** Loadable object images — the moral equivalent of an ELF shared
    object: a text section (assembly with label references),
    initialised data and BSS items (each named by a symbol), imported
    function symbols (bound through the GOT/PLT at load time) and
    exported symbols. *)

type data_item = { d_name : string; d_bytes : Bytes.t; d_align : int }

type bss_item = { b_name : string; b_size : int; b_align : int }

type t = {
  name : string;
  text : Asm.program;
  data : data_item list;
  bss : bss_item list;
  imports : string list;
  exports : string list;
}

val create :
  ?data:data_item list ->
  ?bss:bss_item list ->
  ?imports:string list ->
  ?exports:string list ->
  name:string ->
  Asm.program ->
  t
(** Raises [Invalid_argument] on duplicate symbols. *)

val externs : t -> string -> bool
(** [externs image name]: [name] is one of the image's data or BSS
    symbols or an import — the extern set the verifier needs to decode
    the image's text the way the loaders bind it. *)

val data_item : ?align:int -> string -> Bytes.t -> data_item

val data_string : ?align:int -> string -> string -> data_item

val data_u32s : ?align:int -> string -> int list -> data_item
(** Little-endian 32-bit words. *)

val bss_item : ?align:int -> string -> int -> bss_item

val text_bytes : t -> int

val data_bytes : t -> int
(** Combined data+BSS size including alignment padding. *)

val layout_data : t -> base:int -> (string * int * Bytes.t option) list
(** Assign each data/BSS symbol its address at [base];
    [(symbol, address, initial bytes)] in section order. *)
