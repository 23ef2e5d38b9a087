(* The full translation pipeline of Figure 1: segment-level checks
   produce a linear address (done by [Segmentation]); this module
   performs the page-level checks and the linear-to-physical
   translation through the TLB and, on a miss, the page walk.

   The WP bit of CR0 is modelled as clear, matching the Linux 2.0
   kernels the prototype ran on: supervisor-mode writes ignore the
   page-level read-only bit, user-mode writes do not.  The paper's GOT
   write protection targets SPL 3 extensions, which are user mode, so
   the read-only check applies to exactly the accesses it must. *)

type t = {
  phys : Phys_mem.t;
  tlb : Tlb.t;
  mutable dir : Paging.dir;
  (* PKRU-style protection-key rights register: bit 2k denies all data
     access with key k, bit 2k+1 denies writes.  0 (reset value)
     permits everything, so worlds that never touch keys behave
     exactly as before. *)
  mutable pkru : int;
}

let create ?tlb phys ~dir =
  let tlb = match tlb with Some t -> t | None -> Tlb.create () in
  { phys; tlb; dir; pkru = 0 }

let phys t = t.phys

let tlb t = t.tlb

let directory t = t.dir

(* Loading CR3 switches the page table and flushes the TLB, as the
   hardware does on a task switch. *)
let load_cr3 t dir =
  t.dir <- dir;
  Tlb.flush t.tlb

let flush_tlb t = Tlb.flush t.tlb

(* PKRU access.  Writing it does NOT flush the TLB: entries cache the
   page's key, not the access decision, and the rights register is
   consulted on every access — exactly the hardware contract that
   makes WRPKRU domain switches cheap. *)
let pkru t = t.pkru

let set_pkru t v = t.pkru <- v land 0xFFFF_FFFF

(* Access-rights mask for key [k]: AD at bit 2k, WD at bit 2k+1. *)
let key_ad k = 1 lsl (2 * k)

let key_wd k = 1 lsl ((2 * k) + 1)

(* Page walks and page faults by kind are counted once, in the
   x86.mmu.* counters of the sink current while this MMU's world
   executes. *)
let c_walks = Obs.Counters.counter "x86.mmu.page_walks"

let c_fault_not_present = Obs.Counters.counter "x86.mmu.fault.not_present"

let c_fault_privilege = Obs.Counters.counter "x86.mmu.fault.privilege"

let c_fault_readonly = Obs.Counters.counter "x86.mmu.fault.readonly"

let c_fault_key = Obs.Counters.counter "x86.mmu.fault.key"

let fault c f =
  Obs.Counters.incr c;
  Fault.raise_ f

(* True when the access runs with user-mode page privileges.  Only
   ring 3 is user mode; rings 0-2 are supervisor — this is precisely
   why Palladium puts extensible applications at SPL 2. *)
let user_mode cpl = Privilege.equal cpl Privilege.R3

type translation = { phys_addr : int; walked : bool }

(* Protection-key check, hardware MPK semantics: applies to *data*
   accesses (never instruction fetch) on *user* pages, at every CPL;
   key 0 with a backend-built PKRU is never denied, and the reset PKRU
   of 0 denies nothing at all. *)
let check_key t ~(access : Fault.access) ~linear ~user ~key =
  if user && key <> 0 && t.pkru <> 0 then
    match access with
    | Fault.Execute -> ()
    | Fault.Read ->
        if t.pkru land key_ad key <> 0 then
          fault c_fault_key (Fault.Page_key { linear; access; key })
    | Fault.Write ->
        if t.pkru land (key_ad key lor key_wd key) <> 0 then
          fault c_fault_key (Fault.Page_key { linear; access; key })

let check_pte t ~cpl ~(access : Fault.access) ~linear (pte : Paging.pte) =
  if user_mode cpl && not pte.Paging.user then
    fault c_fault_privilege (Fault.Page_privilege { linear; access; cpl });
  (match access with
  | Fault.Write ->
      if (not pte.Paging.writable) && user_mode cpl then
        fault c_fault_readonly (Fault.Page_readonly { linear })
  | Fault.Read | Fault.Execute -> ());
  check_key t ~access ~linear ~user:pte.Paging.user ~key:pte.Paging.key

(* Linear addresses are 32 bits.  A corrupt address (negative or past
   4 GByte, which the 63-bit OCaml ints used for address arithmetic
   can produce) must fault cleanly like any other unmapped page, not
   crash the simulator with a negative array index in the TLB. *)
let linear_valid linear = linear lsr 32 = 0

let translate t ~cpl ~(access : Fault.access) linear =
  if not (linear_valid linear) then
    fault c_fault_not_present (Fault.Page_not_present { linear; access });
  let vpn = Paging.vpn_of_linear linear in
  let off = linear land Phys_mem.page_mask in
  match Tlb.lookup t.tlb ~vpn with
  | Some e ->
      (* TLB entries cache the U/S, W and key bits, so protection
         checks — the key check against the live PKRU included — are
         performed on hits too (as the hardware does), without an
         extra page walk. *)
      if user_mode cpl && not e.Tlb.e_user then
        fault c_fault_privilege (Fault.Page_privilege { linear; access; cpl });
      (match access with
      | Fault.Write ->
          if (not e.Tlb.e_writable) && user_mode cpl then
            fault c_fault_readonly (Fault.Page_readonly { linear })
      | Fault.Read | Fault.Execute -> ());
      check_key t ~access ~linear ~user:e.Tlb.e_user ~key:e.Tlb.e_key;
      { phys_addr = Paging.linear_of_vpn e.Tlb.e_pfn lor off; walked = false }
  | None -> (
      Obs.Counters.incr c_walks;
      match Paging.lookup t.dir ~vpn with
      | None ->
          fault c_fault_not_present (Fault.Page_not_present { linear; access })
      | Some pte ->
          check_pte t ~cpl ~access ~linear pte;
          pte.Paging.accessed <- true;
          if access = Fault.Write then pte.Paging.dirty <- true;
          Tlb.insert ~key:pte.Paging.key t.tlb ~vpn ~pfn:pte.Paging.pfn
            ~user:pte.Paging.user ~writable:pte.Paging.writable;
          { phys_addr = Paging.linear_of_vpn pte.Paging.pfn lor off; walked = true })

(* Multi-byte accesses that straddle a page boundary translate each
   page; we translate the first and last byte, which covers the 1/2/4
   byte sizes used by the CPU model. *)
let translate_range t ~cpl ~access linear size =
  let first = translate t ~cpl ~access linear in
  if (linear land Phys_mem.page_mask) + size > Phys_mem.page_size then
    ignore (translate t ~cpl ~access (linear + size - 1));
  first

let read_u8 t ~cpl linear =
  let { phys_addr; _ } = translate t ~cpl ~access:Fault.Read linear in
  Phys_mem.read_u8 t.phys phys_addr

let write_u8 t ~cpl linear v =
  let { phys_addr; _ } = translate t ~cpl ~access:Fault.Write linear in
  Phys_mem.write_u8 t.phys phys_addr v

let read_u32 t ~cpl linear =
  if linear land Phys_mem.page_mask <= Phys_mem.page_size - 4 then
    let { phys_addr; _ } = translate t ~cpl ~access:Fault.Read linear in
    Phys_mem.read_u32 t.phys phys_addr
  else
    (* straddles a page: byte-by-byte *)
    read_u8 t ~cpl linear
    lor (read_u8 t ~cpl (linear + 1) lsl 8)
    lor (read_u8 t ~cpl (linear + 2) lsl 16)
    lor (read_u8 t ~cpl (linear + 3) lsl 24)

let write_u32 t ~cpl linear v =
  if linear land Phys_mem.page_mask <= Phys_mem.page_size - 4 then
    let { phys_addr; _ } = translate t ~cpl ~access:Fault.Write linear in
    Phys_mem.write_u32 t.phys phys_addr v
  else begin
    write_u8 t ~cpl linear (v land 0xFF);
    write_u8 t ~cpl (linear + 1) ((v lsr 8) land 0xFF);
    write_u8 t ~cpl (linear + 2) ((v lsr 16) land 0xFF);
    write_u8 t ~cpl (linear + 3) ((v lsr 24) land 0xFF)
  end

(* Bulk transfers translate once per page chunk, not once per byte:
   the segmentation and TLB pipeline runs per page the access touches
   (as hardware block moves do), so an n-byte copy costs
   ceil(n/4096)+1 translations instead of n and no longer inflates the
   TLB hit counters.  Fault semantics are preserved: chunks are
   processed in ascending address order and each page is translated
   before any of its bytes move, so a fault is raised at the first
   faulting byte with every byte before it already transferred —
   exactly what the per-byte loop did. *)
let chunked t ~cpl ~access linear len f =
  let pos = ref 0 in
  while !pos < len do
    let addr = linear + !pos in
    let room = Phys_mem.page_size - (addr land Phys_mem.page_mask) in
    let chunk = min room (len - !pos) in
    let { phys_addr; _ } = translate t ~cpl ~access addr in
    f ~off:!pos ~phys:phys_addr ~chunk;
    pos := !pos + chunk
  done

let read_bytes t ~cpl linear len =
  let out = Bytes.create len in
  chunked t ~cpl ~access:Fault.Read linear len (fun ~off ~phys ~chunk ->
      Bytes.blit (Phys_mem.read_bytes t.phys phys chunk) 0 out off chunk);
  out

let write_bytes t ~cpl linear src =
  chunked t ~cpl ~access:Fault.Write linear (Bytes.length src)
    (fun ~off ~phys ~chunk ->
      Phys_mem.write_bytes t.phys phys (Bytes.sub src off chunk))
