(** Run id [sched]: the concurrency plane — systematic schedule
    exploration with happens-before race detection.

    Mirrors run id [crash] ({!Exp_crash}): where that one enumerates
    crash images of the Fig. 5 state machines, this one enumerates
    thread interleavings of the same operations
    ({!Simurgh_core.Sched_explore}).  Every schedule must produce the
    same final namespace and a clean fsck; the race detector
    ({!Simurgh_sim.Race}) must stay silent on the decentralized
    (private-directory) scenarios and on the striped-lock
    shared-directory scenarios ({!Simurgh_core.Sched_explore.striped_scenarios}),
    on the byte-range data-path scenarios
    ({!Simurgh_core.Sched_explore.data_scenarios}, the correctness gate
    for the [range_locks] configuration) and on the concurrent-rename
    log-ring scenarios ({!Simurgh_core.Sched_explore.ring_scenarios},
    the correctness gate for the [log_ring] format).  Two extra parts
    keep the tooling honest:

    + {b shared-dir}: disjoint names in one directory — real
      cross-thread lock traffic plus the lock-free lookup path; its
      race reports are informational (Simurgh's by-design benign
      8-byte slot publish), not asserted zero;
    + {b negative control}: two fibers storing to one word with no
      lock; the detector {e must} report it.

    With [--json] the counters go to [BENCH_sched.json]:
    [sched/schedules_explored], [sched/schedules_distinct],
    [sched/yield_points], [sched/switches], [sched/oracle_failures],
    [race/lines_tracked], [race/reports], [race/accesses],
    [race/negative_control_reports], [race/shared_dir_reports]. *)

module Sched = Simurgh_core.Sched_explore
module Race = Simurgh_sim.Race
module Obs = Simurgh_obs

let print_stats (st : Sched.stats) =
  Printf.printf
    "  %-11s %4d schedules (%4d distinct%s), %6d yield points, %5d \
     switches, oracle failures %d, races %d, lines tracked %d\n"
    st.Sched.scenario st.Sched.schedules st.Sched.distinct
    (if st.Sched.exhaustive then ", exhaustive" else "")
    st.Sched.yields st.Sched.switches
    (List.length st.Sched.failures)
    (List.length st.Sched.races)
    st.Sched.lines_tracked;
  List.iter
    (fun (label, detail) -> Printf.printf "    FAIL %s: %s\n" label detail)
    st.Sched.failures;
  List.iter
    (fun r -> Printf.printf "    RACE %s\n" (Race.report_to_string r))
    st.Sched.races

(* Exploration budget per scenario.  [Util.scaled] floors at 64 region
   accesses — too coarse here, where each schedule is a full FS run; at
   the default scale the DFS half typically exhausts the two-thread
   trees anyway and the rest is seeded sampling. *)
let budget_of ~scale = max 24 (int_of_float (120.0 *. scale))

(* The gated scenarios: every one must be schedule-invariant, fsck-clean
   and race-free. *)
let gated =
  Sched.default_scenarios ~threads:2
  @ Sched.striped_scenarios ~threads:2
  @ Sched.data_scenarios ~threads:2
  @ Sched.ring_scenarios ~threads:2

(* Parallel recovery: fiber-mode mark-and-sweep over a crashed image
   (and a poisoned variant) must be schedule-independent — identical
   durable media and report under every worker interleaving — plus
   fsck-clean and race-free.  Prints each run ([yields] adds its
   preemption-point count) and hands it to [k]. *)
let recovery_runs ~budget ~yields k =
  List.iter
    (fun poison ->
      let st = Sched.recovery_run ~budget:(max 8 (budget / 4)) ~poison () in
      Printf.printf
        "  %-11s %4d schedules (%4d distinct)%s, oracle failures %d, races \
         %d\n"
        st.Sched.rscenario st.Sched.rschedules st.Sched.rdistinct
        (if yields then Printf.sprintf ", %6d yield points" st.Sched.ryields
         else "")
        (List.length st.Sched.rfailures)
        (List.length st.Sched.rraces);
      List.iter
        (fun (label, detail) -> Printf.printf "    FAIL %s: %s\n" label detail)
        st.Sched.rfailures;
      List.iter
        (fun r -> Printf.printf "    RACE %s\n" (Race.report_to_string r))
        st.Sched.rraces;
      k st)
    [ false; true ]

let run ~scale =
  Util.header
    "sched: schedule exploration + happens-before race detection";
  let budget = budget_of ~scale in
  let schedules = ref 0
  and distinct = ref 0
  and yields = ref 0
  and switches = ref 0
  and failures = ref 0
  and races = ref 0
  and lines = ref 0
  and accesses = ref 0 in
  List.iter
    (fun sc ->
      let st = Sched.run ~budget sc in
      print_stats st;
      schedules := !schedules + st.Sched.schedules;
      distinct := !distinct + st.Sched.distinct;
      yields := !yields + st.Sched.yields;
      switches := !switches + st.Sched.switches;
      failures := !failures + List.length st.Sched.failures;
      races := !races + List.length st.Sched.races;
      lines := max !lines st.Sched.lines_tracked;
      accesses := !accesses + st.Sched.accesses)
    gated;
  let rec_failures = ref 0 and rec_races = ref 0 in
  recovery_runs ~budget ~yields:true (fun st ->
      rec_failures := !rec_failures + List.length st.Sched.rfailures;
      rec_races := !rec_races + List.length st.Sched.rraces;
      schedules := !schedules + st.Sched.rschedules;
      distinct := !distinct + st.Sched.rdistinct;
      yields := !yields + st.Sched.ryields);
  failures := !failures + !rec_failures;
  races := !races + !rec_races;
  (* informational: cross-thread traffic in one shared directory *)
  let shared = Sched.run ~budget:(max 12 (budget / 2)) (Sched.shared_scenario ~threads:3) in
  print_stats shared;
  failures := !failures + List.length shared.Sched.failures;
  let neg = Sched.negative_control () in
  Printf.printf "  negative control (no lock): %s\n"
    (match neg with
    | [] -> "NO REPORT -- detector is broken"
    | rs ->
        Printf.sprintf "caught (%d report%s)" (List.length rs)
          (if List.length rs = 1 then "" else "s"));
  Obs.Collect.note_source (fun () ->
      [
        ("sched/schedules_explored", float_of_int !schedules);
        ("sched/schedules_distinct", float_of_int !distinct);
        ("sched/yield_points", float_of_int !yields);
        ("sched/switches", float_of_int !switches);
        ("sched/oracle_failures", float_of_int !failures);
        ("race/lines_tracked", float_of_int !lines);
        ("race/reports", float_of_int !races);
        ("race/accesses", float_of_int !accesses);
        ("race/negative_control_reports", float_of_int (List.length neg));
        ( "race/shared_dir_reports",
          float_of_int (List.length shared.Sched.races) );
        ("sched/recovery_failures", float_of_int !rec_failures);
        ("sched/recovery_races", float_of_int !rec_races);
      ]);
  Printf.printf
    "  total: %d schedules (%d distinct), %d oracle failures, %d races on \
     decentralized scenarios%s\n"
    !schedules !distinct !failures !races
    (if !failures = 0 && !races = 0 && neg <> [] then
       " -- schedule-invariant and race-free"
     else " (BUG)")

(** Standalone self-check, used by [--races] / [make races]: every
    default scenario must be schedule-invariant, fsck-clean and
    race-free, AND the negative control must fire (so a trivially
    silent detector cannot pass).  Returns a process exit code. *)
let selfcheck ~scale () =
  let budget = budget_of ~scale in
  let bad = ref 0 in
  List.iter
    (fun sc ->
      let st = Sched.run ~budget sc in
      print_stats st;
      if st.Sched.failures <> [] || st.Sched.races <> [] then incr bad;
      if st.Sched.distinct < 2 then begin
        Printf.printf "    FAIL %s: only %d distinct schedule(s) explored\n"
          st.Sched.scenario st.Sched.distinct;
        incr bad
      end)
    gated;
  (* parallel recovery must hold the same bar, with several distinct
     interleavings *)
  recovery_runs ~budget ~yields:false (fun st ->
      if st.Sched.rfailures <> [] || st.Sched.rraces <> [] then incr bad;
      if st.Sched.rdistinct < 2 then begin
        Printf.printf
          "    FAIL %s: only %d distinct interleaving(s) explored\n"
          st.Sched.rscenario st.Sched.rdistinct;
        incr bad
      end);
  let neg = Sched.negative_control () in
  Printf.printf "races: negative control (unlocked stores): %s\n"
    (if neg <> [] then
       Printf.sprintf "caught (%d report%s)" (List.length neg)
         (if List.length neg = 1 then "" else "s")
     else "MISSED");
  if neg = [] then incr bad;
  if !bad = 0 then 0 else 1
