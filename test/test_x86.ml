(* Unit and property tests for the x86 protection-hardware model. *)

module P = X86.Privilege
module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module PM = X86.Phys_mem
module Pg = X86.Paging
module Seg = X86.Segmentation
module F = X86.Fault

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* How far the current sink's counter [name] moved while [f] ran. *)
let counted name f =
  let c = Obs.Counters.counter name in
  let v0 = Obs.Counters.value c in
  f ();
  Obs.Counters.value c - v0

let expect_fault name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a fault" name
  | exception F.Fault _ -> ()

(* --- Privilege ------------------------------------------------------- *)

let test_privilege_order () =
  check_bool "r0 most privileged" true (P.is_at_least_as_privileged P.R0 P.R3);
  check_bool "r3 least privileged" false (P.is_at_least_as_privileged P.R3 P.R0);
  check_bool "reflexive" true (P.is_at_least_as_privileged P.R2 P.R2);
  check_bool "more" true (P.more_privileged P.R1 P.R2);
  check_bool "less" true (P.less_privileged P.R3 P.R2);
  Alcotest.(check int) "weakest" 3 (P.to_int (P.weakest P.R1 P.R3))

let test_default_page_levels () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "SPL0-2 supervisor" true
        (P.default_page_level r = P.Supervisor))
    [ P.R0; P.R1; P.R2 ];
  check_bool "SPL3 user" true (P.default_page_level P.R3 = P.User)

let test_page_access_matrix () =
  check_bool "r0 sup" true (P.may_access_page P.R0 P.Supervisor);
  check_bool "r2 sup" true (P.may_access_page P.R2 P.Supervisor);
  check_bool "r3 sup" false (P.may_access_page P.R3 P.Supervisor);
  check_bool "r3 user" true (P.may_access_page P.R3 P.User);
  check_bool "r0 user" true (P.may_access_page P.R0 P.User)

let prop_privilege_roundtrip =
  QCheck.Test.make ~name:"privilege of_int/to_int roundtrip"
    QCheck.(int_range 0 3)
    (fun n -> P.to_int (P.of_int n) = n)

(* --- Selector --------------------------------------------------------- *)

let test_selector_encode () =
  let s = Sel.make ~table:Sel.Ldt ~rpl:P.R3 5 in
  check_int "encoding" ((5 lsl 3) lor 0b100 lor 3) (Sel.encode s);
  check_bool "null" true (Sel.is_null Sel.null);
  check_bool "not null" false (Sel.is_null s)

let test_selector_bad_index () =
  Alcotest.check_raises "index too large"
    (Invalid_argument "Selector.make: index 8192 out of range") (fun () ->
      ignore (Sel.make ~rpl:P.R0 8192))

let prop_selector_roundtrip =
  QCheck.Test.make ~name:"selector encode/decode roundtrip"
    QCheck.(pair (int_range 0 0x1FFF) (pair bool (int_range 0 3)))
    (fun (index, (ldt, rpl)) ->
      let table = if ldt then Sel.Ldt else Sel.Gdt in
      let s = Sel.make ~table ~rpl:(P.of_int rpl) index in
      Sel.equal s (Sel.decode (Sel.encode s)))

(* --- Descriptor ------------------------------------------------------- *)

let test_descriptor_limit_check () =
  let d = Desc.data ~base:0 ~limit:0xFFF ~dpl:P.R3 () in
  check_bool "inside" true (Desc.offset_valid d ~offset:0xFFC ~size:4);
  check_bool "straddle" false (Desc.offset_valid d ~offset:0xFFD ~size:4);
  check_bool "zero" true (Desc.offset_valid d ~offset:0 ~size:1);
  check_bool "gate has no range" false
    (Desc.offset_valid
       (Desc.call_gate ~dpl:P.R3 ~target:(Sel.make ~rpl:P.R0 1) ~entry:0 ())
       ~offset:0 ~size:1)

let test_descriptor_expand_down () =
  let d = Desc.data ~expand_down:true ~base:0 ~limit:0xFFF ~dpl:P.R0 () in
  check_bool "below limit invalid" false (Desc.offset_valid d ~offset:0x100 ~size:4);
  check_bool "above limit valid" true (Desc.offset_valid d ~offset:0x2000 ~size:4)

let test_descriptor_predicates () =
  let c = Desc.code ~base:0 ~limit:100 ~dpl:P.R0 () in
  let d = Desc.data ~base:0 ~limit:100 ~dpl:P.R0 () in
  let g = Desc.call_gate ~dpl:P.R3 ~target:(Sel.make ~rpl:P.R0 1) ~entry:4 () in
  check_bool "code" true (Desc.is_code c && not (Desc.is_code d));
  check_bool "data" true (Desc.is_data d && not (Desc.is_data c));
  check_bool "gate" true (Desc.is_gate g);
  check_bool "code readable" true (Desc.is_readable c);
  check_bool "code not writable" false (Desc.is_writable c);
  check_bool "data writable" true (Desc.is_writable d)

let test_descriptor_encode_bits () =
  let d = Desc.code ~base:0x12345678 ~limit:0xFFFFF ~dpl:P.R2 () in
  let lo, hi = Desc.encode d in
  check_int "base low half in lo" 0x5678 (lo lsr 16);
  check_int "base 23:16" 0x34 (hi land 0xFF);
  check_int "base 31:24" 0x12 ((hi lsr 24) land 0xFF);
  check_int "dpl" 2 ((hi lsr 13) land 0b11);
  check_int "present" 1 ((hi lsr 15) land 1)

(* --- Descriptor tables ------------------------------------------------ *)

let test_desc_table_basics () =
  let gdt = DT.gdt () in
  let idx = DT.alloc gdt (Desc.data ~base:0 ~limit:10 ~dpl:P.R0 ()) in
  check_int "first alloc skips null slot" 1 idx;
  let sel = Sel.make ~rpl:P.R0 idx in
  check_bool "lookup finds it" true (Desc.is_data (DT.lookup gdt sel));
  expect_fault "null selector" (fun () -> DT.lookup gdt Sel.null);
  expect_fault "missing descriptor" (fun () ->
      DT.lookup gdt (Sel.make ~rpl:P.R0 7));
  DT.set gdt 3 (Desc.not_present (Desc.data ~base:0 ~limit:1 ~dpl:P.R0 ()));
  expect_fault "not present" (fun () -> DT.lookup gdt (Sel.make ~rpl:P.R0 3))

let test_desc_table_gdt_slot0 () =
  let gdt = DT.gdt () in
  Alcotest.check_raises "slot 0 reserved"
    (Invalid_argument "Desc_table.set: GDT entry 0 is the null descriptor")
    (fun () -> DT.set gdt 0 (Desc.data ~base:0 ~limit:1 ~dpl:P.R0 ()))

let test_desc_table_growth () =
  let ldt = DT.ldt ~capacity:2 "t" in
  for _ = 1 to 40 do
    ignore (DT.alloc ldt (Desc.data ~base:0 ~limit:1 ~dpl:P.R3 ()))
  done;
  check_bool "grew" true (DT.capacity ldt >= 40)

let test_view_resolution () =
  let gdt = DT.gdt () in
  let ldt = DT.ldt "t" in
  DT.set gdt 1 (Desc.data ~base:0 ~limit:1 ~dpl:P.R0 ());
  DT.set ldt 0 (Desc.code ~base:0 ~limit:1 ~dpl:P.R3 ());
  let v = DT.view ~ldt gdt in
  check_bool "gdt side" true (Desc.is_data (DT.resolve v (Sel.make ~rpl:P.R0 1)));
  check_bool "ldt side" true
    (Desc.is_code (DT.resolve v (Sel.make ~table:Sel.Ldt ~rpl:P.R3 0)));
  let no_ldt = DT.view gdt in
  expect_fault "ldt selector without ldt" (fun () ->
      DT.resolve no_ldt (Sel.make ~table:Sel.Ldt ~rpl:P.R3 0))

(* --- Physical memory -------------------------------------------------- *)

let test_phys_mem_rw () =
  let m = PM.create () in
  let pfn = PM.alloc_frame m in
  let base = pfn * PM.page_size in
  PM.write_u32 m base 0xDEADBEEF;
  check_int "u32 roundtrip" 0xDEADBEEF (PM.read_u32 m base);
  check_int "little endian low byte" 0xEF (PM.read_u8 m base);
  check_int "little endian high byte" 0xDE (PM.read_u8 m (base + 3));
  PM.write_u16 m (base + 8) 0x1234;
  check_int "u16" 0x1234 (PM.read_u16 m (base + 8))

let test_phys_mem_straddle () =
  let m = PM.create () in
  let a = PM.alloc_frame m in
  let b = PM.alloc_frame m in
  check_int "frames contiguous" (a + 1) b;
  let addr = ((a + 1) * PM.page_size) - 2 in
  PM.write_u32 m addr 0xCAFEBABE;
  check_int "straddling u32" 0xCAFEBABE (PM.read_u32 m addr)

let test_phys_mem_unbacked () =
  let m = PM.create () in
  match PM.read_u8 m 0x7777000 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let prop_phys_u32_roundtrip =
  QCheck.Test.make ~name:"phys u32 write/read roundtrip"
    QCheck.(pair (int_range 0 4092) (int_bound 0xFFFFFFF))
    (fun (off, v) ->
      let m = PM.create () in
      let pfn = PM.alloc_frame m in
      let addr = (pfn * PM.page_size) + off in
      PM.write_u32 m addr v;
      PM.read_u32 m addr = v)

(* --- Paging ------------------------------------------------------------ *)

let test_paging_map_unmap () =
  let d = Pg.create () in
  Pg.map d ~vpn:0x1234 ~pfn:0x55 ~writable:true ~user:false;
  (match Pg.lookup d ~vpn:0x1234 with
  | Some pte ->
      check_int "pfn" 0x55 pte.Pg.pfn;
      check_bool "writable" true pte.Pg.writable;
      check_bool "supervisor" false pte.Pg.user
  | None -> Alcotest.fail "mapping missing");
  check_int "mapped count" 1 (Pg.mapped_pages d);
  check_bool "unmap returns frame" true (Pg.unmap d ~vpn:0x1234 = Some 0x55);
  check_bool "gone" true (Pg.lookup d ~vpn:0x1234 = None);
  check_int "count zero" 0 (Pg.mapped_pages d)

let test_paging_set_user () =
  let d = Pg.create () in
  Pg.map d ~vpn:7 ~pfn:1 ~writable:true ~user:true;
  check_bool "flip to supervisor" true (Pg.set_user d ~vpn:7 false);
  (match Pg.lookup d ~vpn:7 with
  | Some pte -> check_bool "now supervisor" false pte.Pg.user
  | None -> Alcotest.fail "missing");
  check_bool "missing page returns false" false (Pg.set_user d ~vpn:9 false)

let test_paging_clone () =
  let d = Pg.create () in
  Pg.map d ~vpn:1 ~pfn:10 ~writable:true ~user:false;
  Pg.map d ~vpn:2 ~pfn:11 ~writable:false ~user:true;
  let c = Pg.clone d in
  check_int "clone count" 2 (Pg.mapped_pages c);
  (match Pg.lookup c ~vpn:1 with
  | Some pte -> check_bool "ppl inherited" false pte.Pg.user
  | None -> Alcotest.fail "clone lost a page");
  ignore (Pg.set_user c ~vpn:1 true);
  match Pg.lookup d ~vpn:1 with
  | Some pte -> check_bool "original untouched" false pte.Pg.user
  | None -> Alcotest.fail "original lost a page"

(* --- TLB ---------------------------------------------------------------- *)

let test_tlb_basics () =
  let t = X86.Tlb.create ~sets:4 () in
  check_bool "cold miss" true (X86.Tlb.lookup t ~vpn:5 = None);
  X86.Tlb.insert t ~vpn:5 ~pfn:50 ~user:true ~writable:false;
  (match X86.Tlb.lookup t ~vpn:5 with
  | Some e ->
      check_int "pfn cached" 50 e.X86.Tlb.e_pfn;
      check_bool "user bit cached" true e.X86.Tlb.e_user
  | None -> Alcotest.fail "hit expected");
  X86.Tlb.insert t ~vpn:9 ~pfn:90 ~user:false ~writable:true;
  check_bool "conflict evicted" true (X86.Tlb.lookup t ~vpn:5 = None);
  let flushes = counted "x86.tlb.flushes" (fun () -> X86.Tlb.flush t) in
  check_bool "flush clears" true (X86.Tlb.lookup t ~vpn:9 = None);
  check_int "flushes" 1 flushes

let test_tlb_invalidate () =
  let t = X86.Tlb.create () in
  X86.Tlb.insert t ~vpn:3 ~pfn:30 ~user:true ~writable:true;
  X86.Tlb.invalidate t ~vpn:3;
  check_bool "invalidated" true (X86.Tlb.lookup t ~vpn:3 = None)

(* --- MMU ---------------------------------------------------------------- *)

let mmu_world () =
  let phys = PM.create () in
  let dir = Pg.create () in
  let mmu = X86.Mmu.create phys ~dir in
  (phys, dir, mmu)

let test_mmu_translate_ok () =
  let phys, dir, mmu = mmu_world () in
  let pfn = PM.alloc_frame phys in
  Pg.map dir ~vpn:0x10 ~pfn ~writable:true ~user:true;
  let tr = X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read ((0x10 * 4096) + 12) in
  check_int "physical" ((pfn * 4096) + 12) tr.X86.Mmu.phys_addr;
  check_bool "first access walks" true tr.X86.Mmu.walked;
  let tr2 = X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read (0x10 * 4096) in
  check_bool "second access hits TLB" false tr2.X86.Mmu.walked

let test_mmu_user_supervisor () =
  let phys, dir, mmu = mmu_world () in
  let pfn = PM.alloc_frame phys in
  Pg.map dir ~vpn:1 ~pfn ~writable:true ~user:false;
  List.iter
    (fun cpl -> ignore (X86.Mmu.translate mmu ~cpl ~access:F.Write 4096))
    [ P.R0; P.R1; P.R2 ];
  expect_fault "R3 blocked" (fun () ->
      X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read 4096)

let test_mmu_readonly () =
  let phys, dir, mmu = mmu_world () in
  let pfn = PM.alloc_frame phys in
  Pg.map dir ~vpn:2 ~pfn ~writable:false ~user:true;
  ignore (X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read 8192);
  expect_fault "user write to ro page" (fun () ->
      X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Write 8192);
  (* WP=0: supervisor writes bypass the read-only bit (Linux 2.0 era) *)
  ignore (X86.Mmu.translate mmu ~cpl:P.R0 ~access:F.Write 8192)

let test_mmu_not_present () =
  let _, _, mmu = mmu_world () in
  expect_fault "unmapped" (fun () ->
      X86.Mmu.translate mmu ~cpl:P.R0 ~access:F.Read 0x123456)

let test_mmu_cr3_flushes () =
  let phys, dir, mmu = mmu_world () in
  let pfn = PM.alloc_frame phys in
  Pg.map dir ~vpn:1 ~pfn ~writable:true ~user:true;
  ignore (X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read 4096);
  let dir2 = Pg.create () in
  X86.Mmu.load_cr3 mmu dir2;
  expect_fault "stale mapping gone after CR3 load" (fun () ->
      X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read 4096)

(* --- MMU bulk accesses & corrupt-address guard -------------------------- *)

(* [npages] contiguous writable user pages starting at vpn 0x20. *)
let bulk_base = 0x20 * 4096

let bulk_world npages =
  let phys, dir, mmu = mmu_world () in
  for i = 0 to npages - 1 do
    let pfn = PM.alloc_frame phys in
    Pg.map dir ~vpn:(0x20 + i) ~pfn ~writable:true ~user:true
  done;
  (phys, dir, mmu)

let test_mmu_negative_linear () =
  let _, _, mmu = mmu_world () in
  expect_fault "negative linear faults cleanly" (fun () ->
      X86.Mmu.translate mmu ~cpl:P.R3 ~access:F.Read (-4096));
  expect_fault "past 4 GByte faults cleanly" (fun () ->
      X86.Mmu.translate mmu ~cpl:P.R0 ~access:F.Read (1 lsl 33));
  (* the TLB itself must index, and miss, on a corrupt VPN *)
  let t = X86.Tlb.create () in
  check_bool "tlb lookup on negative vpn" true
    (X86.Tlb.lookup t ~vpn:(-5) = None);
  check_bool "tlb lookup on min_int vpn" true
    (X86.Tlb.lookup t ~vpn:min_int = None)

let test_mmu_bulk_translates_per_page () =
  let _, _, mmu = bulk_world 3 in
  let len = 3 * 4096 in
  let read () = ignore (X86.Mmu.read_bytes mmu ~cpl:P.R3 bulk_base len) in
  check_int "one walk per page, not per byte" 3
    (counted "x86.mmu.page_walks" read);
  check_int "warm pass: one TLB hit per page" 3 (counted "x86.tlb.hits" read)

let test_mmu_bulk_fault_prefix () =
  let phys, dir, mmu = mmu_world () in
  let pfn = PM.alloc_frame phys in
  Pg.map dir ~vpn:0x30 ~pfn ~writable:true ~user:true;
  (* vpn 0x31 deliberately unmapped *)
  let addr = (0x30 * 4096) + 4090 in
  expect_fault "write straddling into unmapped page" (fun () ->
      X86.Mmu.write_bytes mmu ~cpl:P.R3 addr (Bytes.make 16 'z'));
  (* per-byte semantics preserved: the first page's bytes landed *)
  check_int "bytes before the fault committed" (Char.code 'z')
    (X86.Mmu.read_u8 mmu ~cpl:P.R3 addr);
  check_int "last mapped byte committed" (Char.code 'z')
    (X86.Mmu.read_u8 mmu ~cpl:P.R3 ((0x30 * 4096) + 4095))

let prop_mmu_u32_straddle =
  QCheck.Test.make ~name:"u32 across pages = byte-composed" ~count:200
    QCheck.(pair (int_bound ((3 * 4096) - 4)) (int_bound 0xFFFFFFFF))
    (fun (off, v) ->
      let _, _, mmu = bulk_world 4 in
      let cpl = P.R3 in
      let addr = bulk_base + off in
      X86.Mmu.write_u32 mmu ~cpl addr v;
      let byte i = X86.Mmu.read_u8 mmu ~cpl (addr + i) in
      let composed =
        byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)
      in
      X86.Mmu.read_u32 mmu ~cpl addr = v && composed = v)

let prop_mmu_bulk_roundtrip =
  QCheck.Test.make ~name:"bulk round-trip across page boundaries" ~count:200
    QCheck.(pair (int_bound (2 * 4096)) (int_bound ((2 * 4096) - 1)))
    (fun (off, len) ->
      let _, _, mmu = bulk_world 5 in
      let cpl = P.R3 in
      let src = Bytes.init len (fun i -> Char.chr ((i * 7) land 0xFF)) in
      X86.Mmu.write_bytes mmu ~cpl (bulk_base + off) src;
      Bytes.equal src (X86.Mmu.read_bytes mmu ~cpl (bulk_base + off) len))

(* Monotonic counters never go backwards, whatever the access mix. *)
let prop_counters_monotonic =
  QCheck.Test.make ~name:"counters monotone under random accesses" ~count:50
    QCheck.(small_list (pair bool (int_bound ((4 * 4096) - 4))))
    (fun ops ->
      let before = Obs.Counters.snapshot () in
      let _, _, mmu = bulk_world 4 in
      List.iter
        (fun (write, off) ->
          let addr = bulk_base + off in
          if write then X86.Mmu.write_u32 mmu ~cpl:P.R3 addr off
          else ignore (X86.Mmu.read_u32 mmu ~cpl:P.R3 addr))
        ops;
      List.for_all
        (fun c ->
          Obs.Counters.kind c = Obs.Counters.Gauge
          || Obs.Counters.value c
             >= (try List.assoc (Obs.Counters.name c) before
                 with Not_found -> 0))
        (Obs.Counters.all ()))

(* --- Segmentation ------------------------------------------------------- *)

let seg_world () =
  let gdt = DT.gdt () in
  DT.set gdt 1 (Desc.code ~base:0 ~limit:0xFFFF ~dpl:P.R0 ());
  DT.set gdt 2 (Desc.data ~base:0 ~limit:0xFFFF ~dpl:P.R0 ());
  DT.set gdt 3 (Desc.code ~base:0 ~limit:0xFFFF ~dpl:P.R3 ());
  DT.set gdt 4 (Desc.data ~base:0x1000 ~limit:0xFFF ~dpl:P.R3 ());
  DT.view gdt

let test_seg_data_load_privilege () =
  let v = seg_world () in
  ignore (Seg.load_data v ~cpl:P.R3 (Sel.make ~rpl:P.R3 4));
  expect_fault "kernel data from CPL3" (fun () ->
      Seg.load_data v ~cpl:P.R3 (Sel.make ~rpl:P.R3 2));
  expect_fault "rpl weakening" (fun () ->
      Seg.load_data v ~cpl:P.R0 (Sel.make ~rpl:P.R3 2));
  ignore (Seg.load_data v ~cpl:P.R0 (Sel.make ~rpl:P.R0 2))

let test_seg_stack_load () =
  let v = seg_world () in
  expect_fault "stack DPL must equal CPL" (fun () ->
      Seg.load_stack v ~cpl:P.R0 (Sel.make ~rpl:P.R0 4));
  ignore (Seg.load_stack v ~cpl:P.R0 (Sel.make ~rpl:P.R0 2));
  expect_fault "stack must be writable data" (fun () ->
      Seg.load_stack v ~cpl:P.R0 (Sel.make ~rpl:P.R0 1))

let test_seg_linear_and_limits () =
  let v = seg_world () in
  let d = Seg.load_data v ~cpl:P.R3 (Sel.make ~rpl:P.R3 4) in
  check_int "base applied" (0x1000 + 0x10)
    (Seg.linear d ~offset:0x10 ~size:4 ~access:F.Read);
  expect_fault "limit check" (fun () ->
      Seg.linear d ~offset:0xFFE ~size:4 ~access:F.Read);
  let c = Seg.load_code v ~new_cpl:P.R0 (Sel.make ~rpl:P.R0 1) in
  expect_fault "write through code segment" (fun () ->
      Seg.linear c ~offset:0 ~size:4 ~access:F.Write)

(* --- Layout -------------------------------------------------------------- *)

let test_layout_helpers () =
  check_int "align down" 0x1000 (X86.Layout.page_align_down 0x1FFF);
  check_int "align up" 0x2000 (X86.Layout.page_align_up 0x1001);
  check_int "pages spanning" 2
    (X86.Layout.pages_spanning ~start:0xFF0 ~len:0x20);
  check_int "pages empty" 0 (X86.Layout.pages_spanning ~start:0 ~len:0);
  check_bool "user addr" true (X86.Layout.is_user_address 0x1000);
  check_bool "kernel addr" true (X86.Layout.is_kernel_address (3 * X86.Layout.gb));
  check_bool "boundary" false (X86.Layout.is_user_address (3 * X86.Layout.gb))

let prop_align =
  QCheck.Test.make ~name:"page alignment properties"
    QCheck.(int_bound 0xFFFFFF)
    (fun a ->
      let down = X86.Layout.page_align_down a in
      let up = X86.Layout.page_align_up a in
      down <= a && a <= up
      && down mod 4096 = 0
      && up mod 4096 = 0
      && up - down < 8192)

let () =
  Alcotest.run "x86"
    [
      ( "privilege",
        [
          Alcotest.test_case "ring ordering" `Quick test_privilege_order;
          Alcotest.test_case "default page levels" `Quick test_default_page_levels;
          Alcotest.test_case "page access matrix" `Quick test_page_access_matrix;
          QCheck_alcotest.to_alcotest prop_privilege_roundtrip;
        ] );
      ( "selector",
        [
          Alcotest.test_case "encoding" `Quick test_selector_encode;
          Alcotest.test_case "bad index" `Quick test_selector_bad_index;
          QCheck_alcotest.to_alcotest prop_selector_roundtrip;
        ] );
      ( "descriptor",
        [
          Alcotest.test_case "limit checks" `Quick test_descriptor_limit_check;
          Alcotest.test_case "expand down" `Quick test_descriptor_expand_down;
          Alcotest.test_case "predicates" `Quick test_descriptor_predicates;
          Alcotest.test_case "hardware encoding" `Quick test_descriptor_encode_bits;
        ] );
      ( "desc-table",
        [
          Alcotest.test_case "alloc and lookup faults" `Quick test_desc_table_basics;
          Alcotest.test_case "gdt slot 0" `Quick test_desc_table_gdt_slot0;
          Alcotest.test_case "growth" `Quick test_desc_table_growth;
          Alcotest.test_case "gdt/ldt view" `Quick test_view_resolution;
        ] );
      ( "phys-mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
          Alcotest.test_case "frame straddling" `Quick test_phys_mem_straddle;
          Alcotest.test_case "unbacked frame" `Quick test_phys_mem_unbacked;
          QCheck_alcotest.to_alcotest prop_phys_u32_roundtrip;
        ] );
      ( "paging",
        [
          Alcotest.test_case "map/unmap" `Quick test_paging_map_unmap;
          Alcotest.test_case "PPL marking" `Quick test_paging_set_user;
          Alcotest.test_case "clone inherits PPL" `Quick test_paging_clone;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss/flush" `Quick test_tlb_basics;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate + TLB fill" `Quick test_mmu_translate_ok;
          Alcotest.test_case "user/supervisor check" `Quick test_mmu_user_supervisor;
          Alcotest.test_case "read-only pages (WP=0)" `Quick test_mmu_readonly;
          Alcotest.test_case "not present" `Quick test_mmu_not_present;
          Alcotest.test_case "CR3 load flushes TLB" `Quick test_mmu_cr3_flushes;
        ] );
      ( "mmu-bulk",
        [
          Alcotest.test_case "corrupt linear faults cleanly" `Quick
            test_mmu_negative_linear;
          Alcotest.test_case "translations per page" `Quick
            test_mmu_bulk_translates_per_page;
          Alcotest.test_case "fault-prefix semantics" `Quick
            test_mmu_bulk_fault_prefix;
          QCheck_alcotest.to_alcotest prop_mmu_u32_straddle;
          QCheck_alcotest.to_alcotest prop_mmu_bulk_roundtrip;
          QCheck_alcotest.to_alcotest prop_counters_monotonic;
        ] );
      ( "segmentation",
        [
          Alcotest.test_case "data load privilege" `Quick test_seg_data_load_privilege;
          Alcotest.test_case "stack load rules" `Quick test_seg_stack_load;
          Alcotest.test_case "linear + limit + rw" `Quick test_seg_linear_and_limits;
        ] );
      ( "layout",
        [
          Alcotest.test_case "helpers" `Quick test_layout_helpers;
          QCheck_alcotest.to_alcotest prop_align;
        ] );
    ]
