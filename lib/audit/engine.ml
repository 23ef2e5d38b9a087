(* Audit driver.  Mirrors Verify's policy shape (Off/Warn/Reject with
   a Rejected exception carrying the report) so callers can treat
   load-time verification and state auditing uniformly. *)

module J = Obs.Json

type policy = Ppolicy.t = Off | Warn | Reject

(* Process default; atomic so worlds on different domains read it
   safely.  A world's override is a [policy option] on its kernel,
   resolved against this default by [effective_policy]. *)
let default_policy : policy Atomic.t = Atomic.make Warn

let policy () = Atomic.get default_policy

let set_policy p = Atomic.set default_policy p

let policy_of_string = Ppolicy.of_string

let policy_name = Ppolicy.name

let effective_policy = function Some p -> p | None -> policy ()

type report = {
  rp_findings : Finding.t list;
  rp_checked : int;
  rp_reach : Reach.result;
  rp_generation : int;
}

let run (s : Snapshot.t) =
  let catalogue_findings = Invariant.check_all s in
  let reach = Reach.analyse s in
  {
    rp_findings = catalogue_findings @ Reach.findings reach;
    rp_checked = List.length Invariant.catalogue + 1;
    rp_reach = reach;
    rp_generation = s.Snapshot.s_generation;
  }

let ok r = r.rp_findings = []

exception Rejected of string * report

let pp_report ppf r =
  Fmt.pf ppf
    "audit: %d invariants, %d nodes / %d edges / %d audited gates, %d \
     finding(s)"
    r.rp_checked r.rp_reach.Reach.r_nodes r.rp_reach.Reach.r_edges
    (List.length r.rp_reach.Reach.r_audited)
    (List.length r.rp_findings);
  List.iter (fun f -> Fmt.pf ppf "@.  %a" Finding.pp f) r.rp_findings

let report_json r =
  J.Obj
    [
      ("checked", J.Int r.rp_checked);
      ("generation", J.Int r.rp_generation);
      ("findings", J.List (List.map Finding.to_json r.rp_findings));
      ("reach", Reach.result_json r.rp_reach);
    ]

let c_pass = Obs.Counters.counter "audit.pass"

let c_warn = Obs.Counters.counter "audit.warn"

let c_reject = Obs.Counters.counter "audit.reject"

let outcome_event ~context ~outcome r =
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Audit_outcome
         { context; outcome; findings = List.length r.rp_findings })

let enforce ?policy:p ~context s =
  let r = run s in
  if ok r then begin
    Obs.Counters.incr c_pass;
    outcome_event ~context ~outcome:"pass" r;
    r
  end
  else
    match effective_policy p with
    | Off ->
        outcome_event ~context ~outcome:"off" r;
        r
    | Warn ->
        Obs.Counters.incr c_warn;
        outcome_event ~context ~outcome:"warn" r;
        Fmt.epr "palladium audit (%s): %a@." context pp_report r;
        r
    | Reject ->
        Obs.Counters.incr c_reject;
        outcome_event ~context ~outcome:"reject" r;
        raise (Rejected (context, r))
