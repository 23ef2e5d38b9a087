(* The benchmark's three workloads.  Each is generated from the seed
   before anything is timed; the program receives only the generated
   inputs.  A workload instance is a set of booted worlds plus:

   - [exec tr i]: operation [i] of the seeded sequence, the only code
     inside the timed interval;
   - [check i]: the untimed check of operation [i]'s output against an
     OCaml reference, with a printable digest of that output (compared
     between the Blocks run and the Interp replay).

   Why each workload exists, and which layers it stresses, is in
   README.md next to this file. *)

(* The policies every world is booted with, set explicitly so that an
   ambient PALLADIUM_* variable cannot change a number. *)
let verify = Verify.Warn
let audit = Audit.Engine.Warn
let budget = Vcost.Off
let budget_cycles = Pconfig.default_time_limit_cycles

(* The engine is the process default when a CPU is created, so it is
   set here, before every boot. *)
let boot ~engine backend =
  Bexec.set_default_engine engine;
  let w =
    Palladium.boot ~verify_policy:verify ~audit_policy:audit ~budget_policy:budget
      ~budget_cycles ~backend ()
  in
  if Cpu.engine (Palladium.cpu w) <> engine then
    failwith "perfbench: world booted under the wrong engine";
  w

type t = {
  worlds : Palladium.world list;
  n : int; (* operations in one pass over the seeded sequence *)
  epoch_passes : int; (* passes per set-up (~2 host s) *)
  chunk : int; (* operations per timing chunk (~10-20 host ms; divides n) *)
  exec : Probe.tracer -> int -> unit;
  check : int -> bool * string;
  images : Image.t list; (* what set-up loaded, for the verifier timing *)
  notes : unit -> string list; (* per-backend figures for the report *)
}

(* A workload with its inputs already generated: set-up boots fresh
   worlds over them. *)
type workload = engine:Cpu.engine -> Probe.tracer -> t

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let fail fmt = Fmt.kstr failwith ("perfbench: " ^^ fmt)

let call_or_fail what = function
  | Ok r -> r
  | Error e -> fail "%s: %a" what User_ext.pp_call_error e

(* One backend's application world: boot, create the application, load
   [images]; every step is a set-up span. *)
let host ~engine tr backend images =
  let w = Probe.span tr Probe.sp_boot (fun () -> boot ~engine backend) in
  let app =
    Probe.span tr Probe.sp_create_app (fun () ->
        Palladium.create_backend_app w ~name:"perfbench")
  in
  let exts =
    List.map (fun im -> Probe.span tr Probe.sp_load (fun () -> Pbackend.load app im)) images
  in
  (w, app, exts)

let call_span = function
  | Pbackend.Segmentation -> Probe.sp_seg_call
  | _ -> Probe.sp_mpk_call

(* --- null-call ---------------------------------------------------------- *)

(* One operation is a warm protected call of [null_fn] in the seg world
   and one in the mpk world, in a seeded order.  Pairing keeps each
   operation's latency unimodal: single calls alternating between a
   ~10 us and a ~16 us backend put the median in the gap between the
   two modes, where it jumps with the seed. *)
let null_call ~seed =
  let n = 1000 in
  let rng = Random.State.make [| seed |] in
  let seg_first = Array.init n (fun _ -> Random.State.bool rng) in
  let args = Array.init n (fun _ -> Random.State.bits rng) in
  let setup ~engine tr =
    let world backend =
      let w, app, exts = host ~engine tr backend [ Ulib.null_image ] in
      let prepare = Pbackend.resolve app (List.hd exts) "null_fn" in
      (* null_fn leaves EAX as the entry stub set it: the warm-up call's
         value is the reference every later call must return *)
      let reference = ref 0 in
      for k = 1 to 4 do
        reference := fst (call_or_fail "null-call warm-up" (Pbackend.call app ~prepare ~arg:k))
      done;
      (w, app, prepare, !reference, call_span backend)
    in
    let w_seg, a_seg, p_seg, ref_seg, s_seg = world Pbackend.Segmentation in
    let w_mpk, a_mpk, p_mpk, ref_mpk, s_mpk = world Pbackend.Mpk in
    let r_seg = ref (Error User_ext.Runaway) and r_mpk = ref (Error User_ext.Runaway) in
    let one tr app prepare span r arg =
      let t0 = Probe.start tr in
      r := Pbackend.call app ~prepare ~arg;
      Probe.stop tr span t0
    in
    let exec tr i =
      let arg = args.(i) in
      if seg_first.(i) then begin
        one tr a_seg p_seg s_seg r_seg arg;
        one tr a_mpk p_mpk s_mpk r_mpk arg
      end
      else begin
        one tr a_mpk p_mpk s_mpk r_mpk arg;
        one tr a_seg p_seg s_seg r_seg arg
      end
    in
    let seg_cycles = ref 0 and mpk_cycles = ref 0 and checked = ref 0 in
    let check _ =
      match (!r_seg, !r_mpk) with
      | Ok (vs, cs), Ok (vm, cm) ->
          seg_cycles := !seg_cycles + cs;
          mpk_cycles := !mpk_cycles + cm;
          incr checked;
          (vs = ref_seg && vm = ref_mpk, Printf.sprintf "seg %x/%d mpk %x/%d" vs cs vm cm)
      | _ -> (false, "call failed")
    in
    let notes () =
      let per_call c = float c /. float (max 1 !checked) in
      let seg = per_call !seg_cycles in
      [
        Printf.sprintf
          "null call, simulated cycles per call: seg %.2f, mpk %.2f \
           (paper Table 1: 142; seg error %+.1f%%)"
          seg (per_call !mpk_cycles)
          (100.0 *. (seg -. 142.0) /. 142.0);
      ]
    in
    {
      worlds = [ w_seg; w_mpk ];
      n;
      epoch_passes = 100;
      chunk = n;
      exec;
      check;
      images = [ Ulib.null_image ];
      notes;
    }
  in
  setup

(* --- cgi-request ---------------------------------------------------------- *)

type request = Body of Bytes.t (* NUL-terminated *) | Hostile

type cgi_world = {
  world : Palladium.world;
  app : Pbackend.app;
  backend : Pbackend.kind;
  rev_prep : int; (* strrev entry *)
  poke : int; (* the rogue store's entry *)
  buf : int; (* request buffer in the extension's heap *)
  cell : int; (* the hidden application cell hostile requests aim at *)
}

let max_body = 8192

(* Each backend gets its own 50 requests: exactly 1 hostile (1 in 50)
   and 49 bodies whose sizes are stratified log-uniform over
   [64, 8192) bytes, so every seed sees the same size distribution and
   only the order and the bytes change.  Worlds alternate seg, mpk. *)
let cgi_request ~seed =
  let per_backend = 50 in
  let rng = Random.State.make [| seed |] in
  let gen () =
    let hostile = per_backend / 50 in
    let benign = per_backend - hostile in
    let body k =
      let u = (float k +. Random.State.float rng 1.0) /. float benign in
      let len = int_of_float (64.0 *. (128.0 ** u)) in
      let b = Bytes.init (len + 1) (fun _ -> Char.chr (1 + Random.State.int rng 255)) in
      Bytes.set b len '\000';
      Body b
    in
    let reqs = Array.append (Array.init benign body) (Array.make hostile Hostile) in
    shuffle rng reqs;
    reqs
  in
  let seg_reqs = gen () in
  let mpk_reqs = gen () in
  let n = 2 * per_backend in
  let sentinel = Random.State.bits rng in
  let setup ~engine tr =
    let world backend =
      let w, app, exts =
        host ~engine tr backend [ Ulib.strrev_image; Ulib.rogue_write_image ]
      in
      let rev, rogue = match exts with [ r; g ] -> (r, g) | _ -> assert false in
      let rev_prep = Pbackend.resolve app rev "strrev" in
      let poke = Pbackend.resolve app rogue "poke" in
      let buf = Pbackend.xmalloc rev (max_body + 1) in
      let task = Pbackend.task app in
      let area =
        Address_space.mmap task.Task.asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data
      in
      Address_space.populate task.Task.asp area;
      let cell = area.Vm_area.va_start in
      Pbackend.poke_u32 app cell sentinel;
      { world = w; app; backend; rev_prep; poke; buf; cell }
    in
    let seg = world Pbackend.Segmentation in
    let mpk = world Pbackend.Mpk in
    let result = ref (Error User_ext.Runaway) in
    let out = ref Bytes.empty in
    let pick i = if i mod 2 = 0 then (seg, seg_reqs.(i / 2)) else (mpk, mpk_reqs.(i / 2)) in
    let exec tr i =
      let { app; backend; rev_prep; poke; buf; cell; _ }, req = pick i in
      match req with
      | Body b ->
          let len = Bytes.length b - 1 in
          Probe.span tr Probe.sp_poke (fun () -> Pbackend.poke_bytes app buf b);
          let t0 = Probe.start tr in
          result := Pbackend.call app ~prepare:rev_prep ~arg:buf;
          Probe.stop tr (call_span backend) t0;
          out := Probe.span tr Probe.sp_peek (fun () -> Pbackend.peek_bytes app buf len)
      | Hostile ->
          let t0 = Probe.start tr in
          result := Pbackend.call app ~prepare:poke ~arg:cell;
          Probe.stop tr Probe.sp_fault_call t0
    in
    let contained = [| 0; 0 |] and hostile = [| 0; 0 |] in
    let check i =
      let { app; backend; cell; _ }, req = pick i in
      match (req, !result) with
      | Body b, Ok _ ->
          let len = Bytes.length b - 1 in
          let expect = Bytes.init len (fun k -> Bytes.get b (len - 1 - k)) in
          (Bytes.equal !out expect, Digest.to_hex (Digest.bytes !out))
      | Hostile, Error (User_ext.Protection_fault f) ->
          let k = if backend = Pbackend.Segmentation then 0 else 1 in
          hostile.(k) <- hostile.(k) + 1;
          let right_class =
            match (backend, f) with
            | Pbackend.Segmentation, X86.Fault.Page_privilege _ -> true
            | Pbackend.Mpk, X86.Fault.Page_key _ -> true
            | _ -> false
          in
          let ok = right_class && Pbackend.peek_u32 app cell = sentinel in
          if ok then contained.(k) <- contained.(k) + 1;
          (ok, Fmt.str "%a" X86.Fault.pp f)
      | Body _, Error e -> (false, Fmt.str "%a" User_ext.pp_call_error e)
      | Hostile, Ok _ -> (false, "hostile store completed")
      | Hostile, Error e -> (false, Fmt.str "%a" User_ext.pp_call_error e)
    in
    (* warm-up: the largest and smallest bodies and one hostile request
       per world, so the first timed pass runs on warm TLBs and
       translated blocks *)
    let warm { app; backend; rev_prep; poke; buf; cell; _ } =
      List.iter
        (fun len ->
          let b = Bytes.make (len + 1) 'w' in
          Bytes.set b len '\000';
          Pbackend.poke_bytes app buf b;
          ignore (call_or_fail "cgi warm-up" (Pbackend.call app ~prepare:rev_prep ~arg:buf));
          ignore (Pbackend.peek_bytes app buf len))
        [ max_body; 64 ];
      match Pbackend.call app ~prepare:poke ~arg:cell with
      | Error (User_ext.Protection_fault _) when Pbackend.peek_u32 app cell = sentinel -> ()
      | _ -> fail "cgi warm-up: %s hostile store not contained" (Pbackend.kind_name backend)
    in
    warm seg;
    warm mpk;
    let notes () =
      [
        Printf.sprintf "hostile requests contained in the last epoch: seg %d/%d, mpk %d/%d"
          contained.(0) hostile.(0) contained.(1) hostile.(1);
      ]
    in
    {
      worlds = [ seg.world; mpk.world ];
      n;
      epoch_passes = 10;
      chunk = 10;
      exec;
      check;
      images = [ Ulib.strrev_image; Ulib.rogue_write_image ];
      notes;
    }
  in
  setup

(* --- packet-filter ---------------------------------------------------------- *)

(* 1000 packets, exactly a quarter of them the canonical filter's
   target, in a seeded order; payload bytes are seeded too. *)
let packet_filter ~seed =
  let n = 1000 in
  let terms = Filter_expr.canonical 4 in
  let rng = Random.State.make [| seed |] in
  let gen = Pkt_gen.create ~seed () in
  let pkts =
    Array.init n (fun k ->
        if k < n / 4 then Pkt_gen.matching_packet ()
        else Pkt_gen.random_packet gen ~match_percent:0)
  in
  shuffle rng pkts;
  let packets =
    Array.map
      (fun p ->
        let b = Packet.to_bytes p in
        for k = Packet.header_bytes to Bytes.length b - 1 do
          Bytes.set b k (Char.chr (Random.State.int rng 256))
        done;
        b)
      pkts
  in
  let expected = Array.map (fun packet -> Filter_expr.matches terms ~packet) packets in
  let setup ~engine tr =
    let w = Probe.span tr Probe.sp_boot (fun () -> boot ~engine Pbackend.Segmentation) in
    let kernel = Palladium.kernel w in
    let task = Kernel.create_task kernel ~name:"perfbench" in
    let seg =
      Probe.span tr Probe.sp_create_app (fun () -> Palladium.create_kernel_segment w)
    in
    let nf = Probe.span tr Probe.sp_load (fun () -> Native_compile.load seg terms) in
    let result = ref (Error Kernel_ext.No_such_service) in
    let exec tr i =
      let t0 = Probe.start tr in
      result := Native_compile.run nf task ~packet:packets.(i);
      Probe.stop tr Probe.sp_kext_run t0
    in
    let matched = ref 0 in
    let check i =
      match !result with
      | Ok (v, c) ->
          if v = 1 then incr matched;
          (v = (if expected.(i) then 1 else 0), Printf.sprintf "%d/%d" v c)
      | Error e -> (false, Fmt.str "%a" Kernel_ext.pp_invoke_error e)
    in
    (* warm-up, untraced so that its cold runs stay out of the spans *)
    let quiet = Probe.tracer false in
    for i = 0 to 31 do
      exec quiet i;
      if not (fst (check i)) then fail "packet-filter warm-up: wrong verdict"
    done;
    matched := 0;
    let notes () = [ Printf.sprintf "packets matched in the last epoch: %d" !matched ] in
    {
      worlds = [ w ];
      n;
      epoch_passes = 100;
      chunk = n;
      exec;
      check;
      images = [ Native_compile.image terms ];
      notes;
    }
  in
  setup

let all =
  [ ("null-call", null_call); ("cgi-request", cgi_request); ("packet-filter", packet_filter) ]
