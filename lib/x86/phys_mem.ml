(* Physical memory: a sparse collection of 4-KByte frames.  Frames are
   allocated on demand by the kernel substrate; the full 4-GByte
   physical space is addressable but only allocated frames are backed.

   All multi-byte accesses are little-endian, like the real hardware. *)

let page_size = 4096

let page_shift = 12

let page_mask = page_size - 1

type t = {
  frames : (int, Bytes.t) Hashtbl.t; (* frame number -> 4K backing *)
  mutable next_frame : int;
  mutable allocated : int;
}

let c_reads = Obs.Counters.counter "x86.phys.reads"

let c_writes = Obs.Counters.counter "x86.phys.writes"

let c_frames = Obs.Counters.gauge "x86.phys.frames"

let create ?(first_frame = 0x100) () =
  (* Frame numbers below [first_frame] are reserved (BIOS/legacy), as on
     a real PC; allocation starts above them. *)
  {
    frames = Hashtbl.create 1024;
    next_frame = first_frame;
    allocated = 0;
  }

let frame_count t = t.allocated

let alloc_frame t =
  let pfn = t.next_frame in
  t.next_frame <- t.next_frame + 1;
  Hashtbl.replace t.frames pfn (Bytes.make page_size '\000');
  t.allocated <- t.allocated + 1;
  Obs.Counters.add c_frames 1;
  pfn

let free_frame t pfn =
  if Hashtbl.mem t.frames pfn then (
    Hashtbl.remove t.frames pfn;
    t.allocated <- t.allocated - 1;
    Obs.Counters.add c_frames (-1))

let frame_exists t pfn = Hashtbl.mem t.frames pfn

let backing t pfn =
  match Hashtbl.find_opt t.frames pfn with
  | Some b -> b
  | None ->
      (* Access to an unallocated frame is a machine check in real
         hardware; in the simulator it is always a kernel bug. *)
      invalid_arg (Printf.sprintf "Phys_mem: unbacked frame %#x" pfn)

let split addr = (addr lsr page_shift, addr land page_mask)

let read_u8 t addr =
  Obs.Counters.incr c_reads;
  let pfn, off = split addr in
  Char.code (Bytes.get (backing t pfn) off)

let write_u8 t addr v =
  Obs.Counters.incr c_writes;
  let pfn, off = split addr in
  Bytes.set (backing t pfn) off (Char.chr (v land 0xFF))

(* Multi-byte accesses may straddle a frame boundary; compose from
   bytes for simplicity and correctness. *)
let read_u16 t addr = read_u8 t addr lor (read_u8 t (addr + 1) lsl 8)

let write_u16 t addr v =
  write_u8 t addr (v land 0xFF);
  write_u8 t (addr + 1) ((v lsr 8) land 0xFF)

let read_u32 t addr =
  read_u8 t addr
  lor (read_u8 t (addr + 1) lsl 8)
  lor (read_u8 t (addr + 2) lsl 16)
  lor (read_u8 t (addr + 3) lsl 24)

let write_u32 t addr v =
  write_u8 t addr (v land 0xFF);
  write_u8 t (addr + 1) ((v lsr 8) land 0xFF);
  write_u8 t (addr + 2) ((v lsr 16) land 0xFF);
  write_u8 t (addr + 3) ((v lsr 24) land 0xFF)

(* Bulk transfers blit whole frame-sized chunks instead of looping
   byte-at-a-time; the access counters still account per byte moved. *)
let chunked addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn, off = split a in
    let chunk = min (page_size - off) (len - !pos) in
    f ~dst_off:!pos ~pfn ~off ~chunk;
    pos := !pos + chunk
  done

let read_bytes t addr len =
  Obs.Counters.add c_reads len;
  let out = Bytes.create len in
  chunked addr len (fun ~dst_off ~pfn ~off ~chunk ->
      Bytes.blit (backing t pfn) off out dst_off chunk);
  out

let write_bytes t addr src =
  let len = Bytes.length src in
  Obs.Counters.add c_writes len;
  chunked addr len (fun ~dst_off ~pfn ~off ~chunk ->
      Bytes.blit src dst_off (backing t pfn) off chunk)

let write_string t addr s = write_bytes t addr (Bytes.of_string s)
