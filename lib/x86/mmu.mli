(** Linear-to-physical translation with page-level protection checks
    (TLB + page walk).

    An MMU keeps no event tallies.  Each page walk and each page fault
    is counted once, in the current sink's [x86.mmu.page_walks] and
    [x86.mmu.fault.{not_present,privilege,readonly,key}] counters; a
    reader takes deltas of those (see {!Obs.Counters}). *)

type t

val create : ?tlb:Tlb.t -> Phys_mem.t -> dir:Paging.dir -> t

val phys : t -> Phys_mem.t

val tlb : t -> Tlb.t

val directory : t -> Paging.dir

val load_cr3 : t -> Paging.dir -> unit
(** Switch page tables and flush the TLB (task switch). *)

val flush_tlb : t -> unit

val pkru : t -> int
(** The protection-key rights register: bit [2k] denies all data
    access with key [k], bit [2k+1] denies writes.  Reset value 0
    permits everything. *)

val set_pkru : t -> int -> unit
(** Write PKRU.  Does not flush the TLB: entries cache the page's key,
    and the rights register is consulted on every access. *)

val key_ad : int -> int
(** Access-disable PKRU mask for a key. *)

val key_wd : int -> int
(** Write-disable PKRU mask for a key. *)

val user_mode : Privilege.ring -> bool
(** Only ring 3 runs with user-mode page privileges. *)

type translation = { phys_addr : int; walked : bool }

val translate : t -> cpl:Privilege.ring -> access:Fault.access -> int -> translation
(** Raises {!Fault.Fault} on page-not-present, user access to a
    supervisor (PPL 0) page, user write to a read-only page, or a data
    access denied by the page's protection key under the current PKRU. *)

val translate_range :
  t -> cpl:Privilege.ring -> access:Fault.access -> int -> int -> translation

val read_u8 : t -> cpl:Privilege.ring -> int -> int

val write_u8 : t -> cpl:Privilege.ring -> int -> int -> unit

val read_u32 : t -> cpl:Privilege.ring -> int -> int

val write_u32 : t -> cpl:Privilege.ring -> int -> int -> unit

val read_bytes : t -> cpl:Privilege.ring -> int -> int -> Bytes.t

val write_bytes : t -> cpl:Privilege.ring -> int -> Bytes.t -> unit
