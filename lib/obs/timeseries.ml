(* Bounded time series of metric samples.

   One [t] holds a ring of timestamped points per metric name.  The
   point payload mirrors the three metric shapes the sinks publish:
   counters sample as (delta-since-last-sample, running total), gauges
   as last-written value, histograms as the interval's own observation
   set (a private Histogram.t holding only the samples that arrived
   during the interval — percentiles over it are per-interval, exact).

   Rings are bounded: once a series holds [capacity] points the oldest
   is overwritten and counted in [dropped].  Timestamps are abstract
   monotone integers — the Collector stamps simulated CPU cycles, so
   series from a parallel fleet are comparable and mergeable with the
   serial run.

   [merge] mirrors {!Sink.merge} sample-exactly: points at equal
   timestamps combine (deltas and totals sum, gauges sum, interval
   histograms merge observation-exactly); a timestamp present on only
   one side carries the other side's last-seen running total (counter)
   or last value (gauge) forward, so merged totals stay cumulative
   even when worlds sample on different boundaries. *)

type value =
  | Counter of { delta : int; total : int }
  | Gauge of int
  | Hist of Histogram.t

type point = { p_t : int; p_v : value }

type t = { ts_capacity : int; ts_tbl : (string, point Ring.t) Hashtbl.t }

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Timeseries.create: capacity must be >= 1";
  { ts_capacity = capacity; ts_tbl = Hashtbl.create 32 }

let capacity t = t.ts_capacity

let series t name =
  match Hashtbl.find_opt t.ts_tbl name with
  | Some s -> s
  | None ->
      let s = Ring.create t.ts_capacity in
      Hashtbl.add t.ts_tbl name s;
      s

let append t ~name ~at v = Ring.push (series t name) { p_t = at; p_v = v }

let names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.ts_tbl [] |> List.sort compare

let on_series t name ~absent f =
  Option.fold ~none:absent ~some:f (Hashtbl.find_opt t.ts_tbl name)

let points t name = on_series t name ~absent:[] Ring.to_list

let points_since t name ~after =
  List.filter (fun p -> p.p_t > after) (points t name)

let last t name = on_series t name ~absent:None Ring.last

let length t name = on_series t name ~absent:0 Ring.length

let dropped t name = on_series t name ~absent:0 Ring.dropped

(* --- Sample-exact merge ---------------------------------------------- *)

let value_kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "hist"

(* Last-seen running state of one input stream, used to keep the
   merged stream cumulative at timestamps the other side missed. *)
type carry = { mutable c_total : int; mutable c_gauge : int }

let note_carry v c =
  match v with
  | Counter { total; _ } -> c.c_total <- total
  | Gauge g -> c.c_gauge <- g
  | Hist _ -> ()

(* A point present on one side only, lifted into the merged stream by
   adding the other side's carry.  Interval histograms need no carry
   (they are per-interval, not cumulative) but are copied so the
   merged series never aliases an input's live histogram. *)
let with_carry v other =
  match v with
  | Counter { delta; total } -> Counter { delta; total = total + other.c_total }
  | Gauge g -> Gauge (g + other.c_gauge)
  | Hist h -> Hist (Histogram.merge h (Histogram.create ()))

let combine name a b =
  match (a, b) with
  | Counter a', Counter b' ->
      Counter { delta = a'.delta + b'.delta; total = a'.total + b'.total }
  | Gauge a', Gauge b' -> Gauge (a' + b')
  | Hist ha, Hist hb -> Hist (Histogram.merge ha hb)
  | _ ->
      invalid_arg
        (Printf.sprintf "Timeseries.merge: %s: %s point merged with %s point"
           name (value_kind a) (value_kind b))

let merge_points name pa pb =
  let ca = { c_total = 0; c_gauge = 0 } in
  let cb = { c_total = 0; c_gauge = 0 } in
  let rec go acc pa pb =
    match (pa, pb) with
    | [], [] -> List.rev acc
    | a :: ra, [] ->
        note_carry a.p_v ca;
        go ({ a with p_v = with_carry a.p_v cb } :: acc) ra []
    | [], b :: rb ->
        note_carry b.p_v cb;
        go ({ b with p_v = with_carry b.p_v ca } :: acc) [] rb
    | a :: ra, b :: rb ->
        if a.p_t = b.p_t then begin
          note_carry a.p_v ca;
          note_carry b.p_v cb;
          go ({ p_t = a.p_t; p_v = combine name a.p_v b.p_v } :: acc) ra rb
        end
        else if a.p_t < b.p_t then begin
          note_carry a.p_v ca;
          go ({ a with p_v = with_carry a.p_v cb } :: acc) ra pb
        end
        else begin
          note_carry b.p_v cb;
          go ({ b with p_v = with_carry b.p_v ca } :: acc) pa rb
        end
  in
  go [] pa pb

let merge ~into src =
  if into == src then
    invalid_arg "Timeseries.merge: cannot merge a series set into itself";
  let union =
    List.sort_uniq compare (names into @ names src)
  in
  List.iter
    (fun name ->
      let merged = merge_points name (points into name) (points src name) in
      let s = series into name in
      let carried = Ring.dropped s + dropped src name in
      Ring.clear s;
      Ring.add_dropped s carried;
      List.iter (Ring.push s) merged)
    union

(* --- JSON -------------------------------------------------------------- *)

let json_of_point p =
  match p.p_v with
  | Counter { delta; total } ->
      Json.Obj
        [ ("t", Json.Int p.p_t); ("delta", Json.Int delta); ("total", Json.Int total) ]
  | Gauge g -> Json.Obj [ ("t", Json.Int p.p_t); ("value", Json.Int g) ]
  | Hist h ->
      let pct x =
        match Histogram.percentile h x with
        | Some v -> Json.Int v
        | None -> Json.Null
      in
      Json.Obj
        [
          ("t", Json.Int p.p_t);
          ("count", Json.Int (Histogram.count h));
          ("sum", Json.Int (Histogram.sum h));
          ("p50", pct 50.0);
          ("p90", pct 90.0);
          ("p99", pct 99.0);
          ( "max",
            match Histogram.max_value h with
            | Some v -> Json.Int v
            | None -> Json.Null );
        ]

let json_of_series t name =
  let pts = points t name in
  Json.Obj
    [
      ("name", Json.String name);
      ( "kind",
        Json.String
          (match pts with [] -> "empty" | p :: _ -> value_kind p.p_v) );
      ("dropped", Json.Int (dropped t name));
      ("points", Json.List (List.map json_of_point pts));
    ]

let to_json t =
  Json.Obj
    [
      ("capacity", Json.Int t.ts_capacity);
      ("series", Json.List (List.map (json_of_series t) (names t)));
    ]
