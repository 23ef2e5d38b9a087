(* Bounded ring keeping the newest values, every push numbered.

   Push number [s] lives in [buf.(s mod cap)]; the buffered values are
   pushes [pushed - len] to [pushed - 1].  [buf] is allocated (filled
   with the value) on the first push, so no placeholder is needed. *)

type 'a t = {
  mutable cap : int;
  mutable buf : 'a array; (* [||] until the first push after create/clear *)
  mutable len : int;
  mutable pushed : int;
  mutable dropped : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be >= 1";
  { cap = capacity; buf = [||]; len = 0; pushed = 0; dropped = 0 }

let capacity r = r.cap

let length r = r.len

let pushed r = r.pushed

let dropped r = r.dropped

let add_dropped r n = r.dropped <- r.dropped + n

let push r v =
  if Array.length r.buf = 0 then r.buf <- Array.make r.cap v;
  r.buf.(r.pushed mod r.cap) <- v;
  r.pushed <- r.pushed + 1;
  if r.len = r.cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1

let since r seq =
  let first = max seq (r.pushed - r.len) in
  List.init (max 0 (r.pushed - first)) (fun i -> r.buf.((first + i) mod r.cap))

let to_list r = since r 0

let last r = if r.len = 0 then None else Some r.buf.((r.pushed - 1) mod r.cap)

let clear r =
  r.buf <- [||];
  r.len <- 0;
  r.pushed <- 0;
  r.dropped <- 0

(* Re-push the newest survivors under their old numbers. *)
let resize r n =
  if n <= 0 then invalid_arg "Ring.resize: capacity must be >= 1";
  let keep = min r.len n in
  let survivors = since r (r.pushed - keep) in
  r.dropped <- r.dropped + (r.len - keep);
  r.cap <- n;
  r.buf <- [||];
  r.len <- 0;
  r.pushed <- r.pushed - keep;
  List.iter (push r) survivors
