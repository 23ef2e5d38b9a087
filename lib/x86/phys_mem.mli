(** Sparse physical memory made of 4-KByte frames (little-endian). *)

val page_size : int

val page_shift : int

val page_mask : int

type t

val create : ?first_frame:int -> unit -> t

val frame_count : t -> int

val alloc_frame : t -> int
(** Allocate a fresh zeroed frame; returns its frame number. *)

val free_frame : t -> int -> unit

val frame_exists : t -> int -> bool

val read_u8 : t -> int -> int
(** Physical read; raises [Invalid_argument] on an unbacked frame
    (a simulator-level kernel bug, not an x86 fault). *)

val write_u8 : t -> int -> int -> unit

val read_u16 : t -> int -> int

val write_u16 : t -> int -> int -> unit

val read_u32 : t -> int -> int

val write_u32 : t -> int -> int -> unit

val read_bytes : t -> int -> int -> Bytes.t

val write_bytes : t -> int -> Bytes.t -> unit

val write_string : t -> int -> string -> unit
