(** Translation lookaside buffer, flushed on CR3 load.  Hits, misses
    and flushes are counted only in the current sink's [x86.tlb.*]
    counters. *)

type entry = {
  e_vpn : int;
  e_pfn : int;
  e_user : bool;
  e_writable : bool;
  e_key : int;  (** protection key cached with the translation *)
}

type t

val create : ?sets:int -> unit -> t

val lookup : t -> vpn:int -> entry option

val peek : t -> vpn:int -> entry option
(** Like {!lookup} but without counting a hit or miss: used by
    batching fast paths that account their hits with {!note_hits} and
    re-run the counting pipeline on a miss. *)

val note_hits : int -> unit
(** Count [n] batched hits, exactly as [n] successful {!lookup} calls
    would have. *)

val insert :
  ?key:int -> t -> vpn:int -> pfn:int -> user:bool -> writable:bool -> unit

val invalidate : t -> vpn:int -> unit

val flush : t -> unit
