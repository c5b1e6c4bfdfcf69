(* Tests for the observability layer: histograms against an exact
   sorted-array oracle, merge laws, metrics, JSON encoding and the
   harness argument parser. *)

open Simurgh_obs

let check_float = Alcotest.(check (float 1e-9))

(* --- histogram ----------------------------------------------------------- *)

let test_hist_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  check_float "p50" 0.0 (Histogram.percentile h 50.0);
  check_float "mean" 0.0 (Histogram.mean h)

let test_hist_single () =
  let h = Histogram.create () in
  Histogram.record h 42.0;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  check_float "p0" 42.0 (Histogram.percentile h 0.0);
  check_float "p50" 42.0 (Histogram.percentile h 50.0);
  check_float "p100" 42.0 (Histogram.percentile h 100.0);
  check_float "mean" 42.0 (Histogram.mean h)

let test_hist_exact_extremes () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 3.0; 900.0; 17.5; 0.25; 44000.0 ];
  (* min/max/count/sum are tracked exactly, outside the buckets *)
  check_float "p0 exact" 0.25 (Histogram.percentile h 0.0);
  check_float "p100 exact" 44000.0 (Histogram.percentile h 100.0);
  Alcotest.(check int) "count" 5 (Histogram.count h);
  check_float "sum" 44920.75 (Histogram.sum h)

(* Random samples: every reported percentile must sit within the
   bucket-resolution error (~1/64 relative) of the exact order
   statistic computed by Stats.percentile on the raw samples. *)
let test_hist_oracle () =
  let rng = Simurgh_sim.Rng.create 99L in
  List.iter
    (fun n ->
      let h = Histogram.create () in
      let samples =
        Array.init n (fun _ ->
            (* latencies spanning several octaves, like real op costs *)
            Float.exp (Simurgh_sim.Rng.float rng *. 12.0))
      in
      Array.iter (Histogram.record h) samples;
      List.iter
        (fun p ->
          let exact = Simurgh_sim.Stats.percentile samples p in
          let est = Histogram.percentile h p in
          let tol = (0.05 *. Float.abs exact) +. 1e-6 in
          if Float.abs (est -. exact) > tol then
            Alcotest.failf "n=%d p%.1f: est %g vs exact %g (tol %g)" n p est
              exact tol)
        [ 0.0; 10.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])
    [ 1; 2; 7; 100; 5000 ]

let prop_hist_percentile_bounded =
  QCheck.Test.make ~name:"Histogram.percentile within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 1e6))
    (fun l ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) l;
      let lo = Histogram.min_value h and hi = Histogram.max_value h in
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          v >= lo -. 1e-9 && v <= hi +. 1e-9)
        [ 0.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ])

let test_hist_merge_assoc () =
  let mk l =
    let h = Histogram.create () in
    List.iter (Histogram.record h) l;
    h
  in
  (* integer-valued samples: float addition is exact, so associativity
     must hold bit-for-bit — compare via the JSON summaries *)
  let a = mk [ 1.0; 8.0; 64.0 ]
  and b = mk [ 2.0; 16.0 ]
  and c = mk [ 4.0; 32.0; 256.0; 1024.0 ] in
  let left = Histogram.merge (Histogram.merge a b) c in
  let right = Histogram.merge a (Histogram.merge b c) in
  Alcotest.(check string) "assoc"
    (Json.to_string (Histogram.to_json left))
    (Json.to_string (Histogram.to_json right));
  Alcotest.(check int) "merged count" 9 (Histogram.count left)

let test_hist_merge_vs_whole () =
  let l1 = [ 5.0; 50.0; 500.0 ] and l2 = [ 7.0; 70.0 ] in
  let mk l =
    let h = Histogram.create () in
    List.iter (Histogram.record h) l;
    h
  in
  let merged = Histogram.merge (mk l1) (mk l2) in
  let whole = mk (l1 @ l2) in
  Alcotest.(check string) "merge = record-all"
    (Json.to_string (Histogram.to_json whole))
    (Json.to_string (Histogram.to_json merged))

(* --- metrics ------------------------------------------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.add m "b" 2.0;
  Metrics.incr m "a";
  Metrics.add m "b" 3.0;
  check_float "a" 1.0 (Metrics.get m "a");
  check_float "b" 5.0 (Metrics.get m "b");
  check_float "missing" 0.0 (Metrics.get m "zzz");
  Alcotest.(check (list string)) "sorted names" [ "a"; "b" ]
    (List.map fst (Metrics.to_list m));
  let d = Metrics.create () in
  Metrics.add d "b" 1.0;
  Metrics.merge_into d m;
  check_float "merged" 6.0 (Metrics.get d "b")

(* --- contention ---------------------------------------------------------- *)

let test_contention_counts () =
  let c = Contention.create () in
  Contention.record_acquire c ~site:"s" ~kind:Contention.Spin ~wait:0.0;
  Contention.record_acquire c ~site:"s" ~kind:Contention.Spin ~wait:10.0;
  Contention.record_acquire c ~site:"s" ~kind:Contention.Spin ~wait:5.0;
  Contention.record_acquire c ~site:"t" ~kind:Contention.Mutex ~wait:0.0;
  check_float "total wait" 15.0 (Contention.total_wait c);
  Alcotest.(check int) "acquisitions" 4 (Contention.total_acquisitions c);
  check_float "site wait" 15.0 (Contention.wait_of c "s");
  match Contention.to_list c with
  | [ ("s", s); ("t", t) ] ->
      Alcotest.(check int) "s contended" 2 s.Contention.contended;
      Alcotest.(check int) "s acquisitions" 3 s.Contention.acquisitions;
      Alcotest.(check int) "t contended" 0 t.Contention.contended
  | _ -> Alcotest.fail "expected two sites"

(* --- run ----------------------------------------------------------------- *)

let test_run_merge () =
  let a = Run.create () and b = Run.create () in
  Metrics.add a.Run.counters "x" 1.0;
  Metrics.add b.Run.counters "x" 2.0;
  Histogram.record (Run.hist a "fs/op") 10.0;
  Histogram.record (Run.hist b "fs/op") 20.0;
  Span.add_fs a.Run.spans 100.0;
  Span.add_copy_bytes b.Run.spans 4096;
  let m = Run.merge a b in
  check_float "counter" 3.0 (Metrics.get m.Run.counters "x");
  Alcotest.(check int) "hist merged" 2
    (Histogram.count (Run.hist m "fs/op"));
  check_float "span fs" 100.0 m.Run.spans.Span.fs_cycles;
  Alcotest.(check int) "span bytes" 4096 m.Run.spans.Span.copy_bytes;
  (* sources untouched *)
  Alcotest.(check int) "a hist intact" 1 (Histogram.count (Run.hist a "fs/op"))

(* --- json ---------------------------------------------------------------- *)

let test_json_encoding () =
  Alcotest.(check string) "escaping" {|"a\"b\\c\n\td\u0001"|}
    (Json.to_string (Json.Str "a\"b\\c\n\td\001"));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "obj"
    {|{"a":1,"b":[true,null,1.5]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
          ]))

(* --- collect: resolve-cache counter sources ------------------------------ *)

(* Both resolve caches must surface in an experiment snapshot: the
   kernel baselines register dcache/* and a Simurgh mount with the
   resolve cache on registers rcache/*. *)
let test_collect_cache_counters () =
  Collect.install ();
  let kfs = Simurgh_baselines.Nova.create () in
  Simurgh_baselines.Nova.mkdir kfs "/d";
  Simurgh_baselines.Nova.create_file kfs "/d/f";
  for _ = 1 to 5 do
    ignore (Simurgh_baselines.Nova.stat kfs "/d/f")
  done;
  let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
  let fs = Simurgh_core.Fs.mkfs ~euid:0 ~rcache:true region in
  Simurgh_core.Fs.mkdir fs "/d";
  Simurgh_core.Fs.create_file fs "/d/f";
  for _ = 1 to 5 do
    ignore (Simurgh_core.Fs.stat fs "/d/f")
  done;
  let run = Collect.drain () in
  let names = List.map fst (Metrics.to_list run.Run.counters) in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (List.mem k names))
    [
      "dcache/hits";
      "dcache/misses";
      "rcache/hits";
      "rcache/misses";
      "rcache/inserts";
      "rcache/invalidations";
      "rcache/evictions";
      "rcache/prefix_hits";
      "rcache/prefix_misses";
      "rcache/prefix_drops";
    ];
  Alcotest.(check bool) "dcache hits nonzero" true
    (Metrics.get run.Run.counters "dcache/hits" > 0.0);
  Alcotest.(check bool) "rcache hits nonzero" true
    (Metrics.get run.Run.counters "rcache/hits" > 0.0);
  (* the create of /d/f recorded the prefix /d: each stat reaches it in
     one probe *)
  Alcotest.(check (float 0.0)) "rcache prefix hits" 5.0
    (Metrics.get run.Run.counters "rcache/prefix_hits")

(* Named counter sources: a ~name'd registration claims its name for
   the collector -- a second registration under the same name is the
   two-live-regions shadowing bug and must raise, while anonymous
   same-key sources keep the historical summing behavior. *)
let test_collect_named_source_duplicate () =
  Collect.install ();
  Collect.note_source ~name:"dupA" (fun () -> [ ("dupA/x", 1.0) ]);
  (match Collect.note_source ~name:"dupA" (fun () -> [ ("dupA/x", 5.0) ]) with
  | () -> Alcotest.fail "expected Duplicate_source"
  | exception Collect.Duplicate_source n ->
      Alcotest.(check string) "offending name" "dupA" n);
  (* a different name is fine, and anonymous sources never collide *)
  Collect.note_source ~name:"dupB" (fun () -> [ ("dupB/x", 2.0) ]);
  Collect.note_source (fun () -> [ ("anon/x", 3.0) ]);
  Collect.note_source (fun () -> [ ("anon/x", 4.0) ]);
  let run = Collect.drain () in
  Alcotest.(check (float 1e-9)) "named kept" 1.0
    (Metrics.get run.Run.counters "dupA/x");
  Alcotest.(check (float 1e-9)) "second name kept" 2.0
    (Metrics.get run.Run.counters "dupB/x");
  Alcotest.(check (float 1e-9)) "anonymous sources sum" 7.0
    (Metrics.get run.Run.counters "anon/x")

(* Two live regions under one collector: named regions export disjoint
   [<name>/...] counter families instead of silently merging into one
   [region/...] stream. *)
let test_collect_region_namespacing () =
  Collect.install ();
  let ra = Simurgh_nvmm.Region.create ~name:"regA" (1 lsl 20) in
  let rb = Simurgh_nvmm.Region.create ~name:"regB" (1 lsl 20) in
  Simurgh_nvmm.Region.write_u32 ra 0 7;
  for _ = 1 to 3 do
    ignore (Simurgh_nvmm.Region.read_u32 ra 0)
  done;
  ignore (Simurgh_nvmm.Region.read_u32 rb 0);
  (* a second region under the same name is the shadowing bug *)
  (match Simurgh_nvmm.Region.create ~name:"regA" (1 lsl 20) with
  | _ -> Alcotest.fail "expected Duplicate_source"
  | exception Collect.Duplicate_source n ->
      Alcotest.(check string) "offending name" "regA" n);
  let run = Collect.drain () in
  Alcotest.(check (float 1e-9)) "regA loads" 3.0
    (Metrics.get run.Run.counters "regA/loads");
  Alcotest.(check (float 1e-9)) "regB loads" 1.0
    (Metrics.get run.Run.counters "regB/loads");
  Alcotest.(check (float 1e-9)) "regA stores" 1.0
    (Metrics.get run.Run.counters "regA/stores");
  (* nothing leaked into the legacy unprefixed family *)
  Alcotest.(check (float 1e-9)) "no region/loads" 0.0
    (Metrics.get run.Run.counters "region/loads")

(* An owned source must not keep its owner alive, yet the counters the
   owner accumulated before it died still reach the snapshot. *)
type owner = { mutable n : int }

(* Register a source owned by a fresh record, count to 42 and drop the
   record; [alive] observes it weakly. *)
let[@inline never] note_dropped_owner alive =
  let o = { n = 0 } in
  Weak.set alive 0 (Some o);
  Collect.note_source ~owner:o (fun () -> [ ("own/n", float_of_int o.n) ]);
  o.n <- 42

let test_collect_owned_source () =
  Collect.install ();
  let alive = Weak.create 1 in
  note_dropped_owner alive;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "owner released" true (Weak.get alive 0 = None);
  let live = { n = 7 } in
  Collect.note_source ~owner:live (fun () -> [ ("own/n", float_of_int live.n) ]);
  let run = Collect.drain () in
  Alcotest.(check (float 1e-9)) "dead + live owner" 49.0
    (Metrics.get run.Run.counters "own/n");
  ignore (Sys.opaque_identity live)

(* --- report -------------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_dir "simurgh_report" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let find hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* [needles] all occur in [doc], in this order. *)
let check_in_order doc needles =
  ignore
    (List.fold_left
       (fun from needle ->
         match find doc needle with
         | Some i ->
             if i < from then Alcotest.failf "%S out of order" needle;
             i
         | None -> Alcotest.failf "%S missing" needle)
       0 needles)

let test_report_finish () =
  with_temp_dir (fun dir ->
      Report.begin_exp "exp-x";
      Collect.install ();
      Collect.note_source (fun () -> [ ("src/x", 3.0) ]);
      Report.table ~title:"first" ~columns:[ "a"; "b" ];
      Report.row "r1" [ 1.0; 2.0 ];
      Report.row "r2" [ 3.0; 4.5 ];
      Report.note "note one";
      Report.table ~title:"second" ~columns:[ "c" ];
      Report.row "r3" [ 6.0 ];
      Report.note "note two";
      Report.counter "exp/k" 1.0;
      Report.counter "exp/k" 2.0;
      let path = Report.finish ~dir ~scale:0.5 ~obs:(Collect.drain ()) in
      let expect = Filename.concat dir "BENCH_exp-x.json" in
      Alcotest.(check (option string)) "path" (Some expect) path;
      Alcotest.(check (array string)) "only file" [| "BENCH_exp-x.json" |]
        (Sys.readdir dir);
      Alcotest.(check bool) "closed" false (Report.active ());
      let doc = In_channel.with_open_text expect In_channel.input_all in
      check_in_order doc
        [
          {|"schema": "simurgh-bench-v1"|};
          {|"run": "exp-x"|};
          {|"scale": 0.5|};
          {|"title": "first"|};
          {|"label": "r1"|};
          {|"label": "r2"|};
          "4.5";
          {|"title": "second"|};
          {|"label": "r3"|};
          {|"notes"|};
          {|"note one"|};
          {|"note two"|};
          {|"counters"|};
          {|"exp/k": 3|};
          {|"src/x": 3|};
        ])

let test_report_inactive () =
  with_temp_dir (fun dir ->
      Report.discard ();
      Report.table ~title:"t" ~columns:[ "a" ];
      Report.ensure_table ~title:"t" ~columns:[ "a" ];
      Report.row "r" [ 1.0 ];
      Report.note "n";
      Report.counter "k" 1.0;
      Alcotest.(check bool) "inactive" false (Report.active ());
      Alcotest.(check (option string)) "no path" None
        (Report.finish ~dir ~scale:1.0 ~obs:(Run.create ()));
      Alcotest.(check int) "nothing written" 0 (Array.length (Sys.readdir dir)))

let test_report_sanitize () =
  with_temp_dir (fun dir ->
      Report.begin_exp "tab2+fig8";
      Alcotest.(check (option string)) "sanitized"
        (Some (Filename.concat dir "BENCH_tab2_fig8.json"))
        (Report.finish ~dir ~scale:1.0 ~obs:(Run.create ()));
      Alcotest.(check bool) "exists" true
        (Sys.file_exists (Filename.concat dir "BENCH_tab2_fig8.json")))

(* --- cli ----------------------------------------------------------------- *)

let known = [ "fig7"; "fig9"; "tab1" ]
let is_dynamic id = String.length id = 5 && String.sub id 0 4 = "fig7"

let parse args = Obs_cli.parse ~known ~is_dynamic args

let test_cli_ok () =
  match parse [ "--scale"; "0.5"; "--json"; "out"; "fig9"; "fig7a" ] with
  | Ok c ->
      check_float "scale" 0.5 c.Obs_cli.scale;
      Alcotest.(check (option string)) "json" (Some "out") c.Obs_cli.json_dir;
      Alcotest.(check (list string)) "ids" [ "fig9"; "fig7a" ] c.Obs_cli.ids;
      Alcotest.(check bool) "not list" false c.Obs_cli.list_only
  | Error e -> Alcotest.fail e

let expect_error name args =
  match parse args with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error _ -> ()

let test_cli_errors () =
  (* --scale as the last argument used to raise a bare Failure *)
  expect_error "dangling scale" [ "fig9"; "--scale" ];
  expect_error "non-numeric scale" [ "--scale"; "fast" ];
  expect_error "negative scale" [ "--scale"; "-1" ];
  (* unknown flags used to be treated as experiment ids *)
  expect_error "unknown flag" [ "--verbose" ];
  (* misspelled ids used to run nothing and exit 0 *)
  expect_error "misspelled id" [ "figg9" ];
  expect_error "dangling json" [ "--json" ];
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match parse [ "figg9" ] with
  | Error msg ->
      Alcotest.(check bool) "mentions --list" true (contains msg "--list")
  | Ok _ -> Alcotest.fail "expected error");
  match parse [ "all" ] with
  | Ok c -> Alcotest.(check (list string)) "all ok" [ "all" ] c.Obs_cli.ids
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single" `Quick test_hist_single;
          Alcotest.test_case "exact extremes" `Quick test_hist_exact_extremes;
          Alcotest.test_case "oracle" `Quick test_hist_oracle;
          Alcotest.test_case "merge associative" `Quick test_hist_merge_assoc;
          Alcotest.test_case "merge = whole" `Quick test_hist_merge_vs_whole;
          QCheck_alcotest.to_alcotest prop_hist_percentile_bounded;
        ] );
      ("metrics", [ Alcotest.test_case "counters" `Quick test_metrics ]);
      ( "contention",
        [ Alcotest.test_case "site counts" `Quick test_contention_counts ] );
      ("run", [ Alcotest.test_case "merge" `Quick test_run_merge ]);
      ("json", [ Alcotest.test_case "encoding" `Quick test_json_encoding ]);
      ( "collect",
        [
          Alcotest.test_case "cache counters" `Quick
            test_collect_cache_counters;
          Alcotest.test_case "named source duplicate" `Quick
            test_collect_named_source_duplicate;
          Alcotest.test_case "per-region namespacing" `Quick
            test_collect_region_namespacing;
          Alcotest.test_case "owned source outlives owner" `Quick
            test_collect_owned_source;
        ] );
      ( "report",
        [
          Alcotest.test_case "finish writes one file" `Quick test_report_finish;
          Alcotest.test_case "no-op when inactive" `Quick test_report_inactive;
          Alcotest.test_case "id sanitized" `Quick test_report_sanitize;
        ] );
      ( "cli",
        [
          Alcotest.test_case "ok" `Quick test_cli_ok;
          Alcotest.test_case "errors" `Quick test_cli_errors;
        ] );
    ]
