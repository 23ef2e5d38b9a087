(* Measurement primitives of the benchmark: a monotonic nanosecond
   clock, off-heap sample buffers, percentiles, and the span recorder
   of the traced run.

   Samples live in Bigarrays so that recording them does not grow the
   OCaml major heap, which the benchmark measures as
   [live_bytes_per_op]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

module Buf = struct
  type t = {
    mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable n : int;
  }

  let create cap =
    { a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 16 cap); n = 0 }

  let push t v =
    if t.n = Bigarray.Array1.dim t.a then begin
      let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * t.n) in
      Bigarray.Array1.blit t.a (Bigarray.Array1.sub b 0 t.n);
      t.a <- b
    end;
    Bigarray.Array1.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let length t = t.n

  let get t i = Bigarray.Array1.get t.a i

  (* Sum of [len] samples from [from] (default: all). *)
  let sum ?(from = 0) ?len t =
    let len = Option.value len ~default:(t.n - from) in
    let s = ref 0 in
    for i = from to from + len - 1 do
      s := !s + Bigarray.Array1.unsafe_get t.a i
    done;
    !s

  let sorted t =
    let x = Array.init t.n (Bigarray.Array1.get t.a) in
    Array.sort Int.compare x;
    x
end

(* Nearest-rank percentile of a sorted array: always a measured
   sample, never an interpolation. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median_float xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- Spans ------------------------------------------------------------ *)

(* The layer boundaries the traced run times, from the benchmark's own
   code around its calls into each layer's public functions. *)
let span_names =
  [|
    "op";
    "core.seg.call_us";
    "core.mpk.call_us";
    "core.fault_call_us";
    "core.poke_us";
    "core.peek_us";
    "core.kext.run_us";
    "core.boot_us";
    "core.create_app_us";
    "linker.load_us";
    "verify.verify_us";
    "audit.full_us";
    "sim.server_run_us";
  |]

let sp_op = 0
let sp_seg_call = 1
let sp_mpk_call = 2
let sp_fault_call = 3
let sp_poke = 4
let sp_peek = 5
let sp_kext_run = 6
let sp_boot = 7
let sp_create_app = 8
let sp_load = 9
let sp_verify = 10
let sp_audit = 11
let sp_server_run = 12

(* Spans of the first [log_ops] operations are also kept as records
   (kind, op, start, stop) for the trace file; every span feeds its
   kind's duration buffer. *)
let log_ops = 2000

type tracer = {
  on : bool;
  durs : Buf.t array;
  log : Buf.t;
  mutable op : int; (* operation the next spans belong to; -1 in set-up *)
}

let tracer on =
  {
    on;
    durs = Array.map (fun _ -> Buf.create (if on then 4096 else 16)) span_names;
    log = Buf.create (if on then 4 * 4096 else 16);
    op = -1;
  }

let start tr = if tr.on then now_ns () else 0

let record tr kind t0 t1 =
  Buf.push tr.durs.(kind) (t1 - t0);
  if tr.op < log_ops then begin
    Buf.push tr.log kind;
    Buf.push tr.log tr.op;
    Buf.push tr.log t0;
    Buf.push tr.log t1
  end

let stop tr kind t0 = if tr.on then record tr kind t0 (now_ns ())

(* Time [f ()] as one span of [kind]. *)
let span tr kind f =
  let t0 = start tr in
  let r = f () in
  stop tr kind t0;
  r

(* Chrome trace-event JSON (viewable in Perfetto): one complete event
   per logged span, the operation index as the shared identifier. *)
let write_trace tr path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let base = ref max_int in
  for k = 0 to (Buf.length tr.log / 4) - 1 do
    base := min !base (Buf.get tr.log ((4 * k) + 2))
  done;
  let base = !base in
  let i = ref 0 in
  while !i < Buf.length tr.log do
    let kind = Buf.get tr.log !i and op = Buf.get tr.log (!i + 1) in
    let t0 = Buf.get tr.log (!i + 2) and t1 = Buf.get tr.log (!i + 3) in
    if !i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,%s}"
      span_names.(kind)
      (float (t0 - base) /. 1e3)
      (float (t1 - t0) /. 1e3)
      (Printf.sprintf "\"args\":{\"op\":%d}" op);
    i := !i + 4
  done;
  output_string oc "\n]}\n";
  close_out oc

(* --- Unit costs --------------------------------------------------------- *)

(* Host nanoseconds per iteration of [loop n] (which runs [n]
   iterations): the batch size doubles from 1 until one batch takes
   10 ms, then the median of five batches is reported.  Whatever set-up the
   loop needs happens before this is called. *)
let unit_ns loop =
  let time n =
    let t0 = now_ns () in
    loop n;
    now_ns () - t0
  in
  let rec calibrate n = if n >= 1 lsl 24 || time n >= 10_000_000 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  median_float (List.init 5 (fun _ -> float (time n) /. float n))
