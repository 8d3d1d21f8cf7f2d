(* Cost model and aggregate statistics. *)

open Metrics

let test_cost_monotone_in_level () =
  let ops level =
    [ Cost.LwUpdate { level }; Cost.ValidateRead { level };
      Cost.RunSwitch { level };
      Cost.SyncVectorAppend { level; resize = false };
      Cost.CasIncrement { level }; Cost.VersionRead { level } ]
  in
  List.iter2
    (fun lo hi -> Alcotest.(check bool) "level raises cost" true (Cost.cost hi >= Cost.cost lo))
    (ops 0) (ops 5)

let test_fast_paths_cheap () =
  Alcotest.(check bool) "run extension cheapest" true
    (Cost.cost Cost.RunExtend < Cost.cost (Cost.LwUpdate { level = 0 }));
  Alcotest.(check bool) "light write < leap append" true
    (Cost.cost (Cost.LwUpdate { level = 7 })
    < Cost.cost (Cost.SyncVectorAppend { level = 7; resize = false }));
  Alcotest.(check bool) "resize costs extra" true
    (Cost.cost (Cost.SyncVectorAppend { level = 0; resize = true })
    > Cost.cost (Cost.SyncVectorAppend { level = 0; resize = false }))

let test_meter () =
  let m = Cost.meter () in
  Cost.charge m Cost.RunExtend;
  Cost.charge m Cost.DepAppend;
  Alcotest.(check int) "two ops" 2 m.ops;
  Alcotest.(check bool) "units accumulated" true (m.units > 0);
  let ovh = Cost.overhead m ~steps:100 in
  Alcotest.(check bool) "overhead fraction" true (ovh > 0.0 && ovh < 1.0);
  Alcotest.(check (float 0.001)) "zero steps safe" 0.0 (Cost.overhead m ~steps:0)

let test_stripes_convoy () =
  let s = Cost.stripes () in
  let l = Runtime.Loc.field 42 "f" in
  Alcotest.(check int) "first touch uncontended" 0 (Cost.touch s l ~tid:1);
  Alcotest.(check int) "same thread still uncontended" 0 (Cost.touch s l ~tid:1);
  let lvl = Cost.touch s l ~tid:2 in
  Alcotest.(check bool) "other thread raises level" true (lvl >= 1);
  (* alternating 8 threads saturates near the window *)
  for round = 0 to 4 do
    for t = 1 to 8 do
      ignore (Cost.touch s l ~tid:(100 + t + (round * 0)))
    done
  done;
  Alcotest.(check bool) "convoy saturates" true (Cost.touch s l ~tid:1 >= 6)

let test_stripes_independent () =
  let s = Cost.stripes () in
  let a = Runtime.Loc.field 1 "f" and b = Runtime.Loc.field 2 "g" in
  if Cost.stripe_of a.obj a.fld <> Cost.stripe_of b.obj b.fld then begin
    ignore (Cost.touch s a ~tid:1);
    ignore (Cost.touch s a ~tid:2);
    Alcotest.(check int) "other stripe unaffected" 0 (Cost.touch s b ~tid:3)
  end

(* The convoy level as the window recount: a stripe's last [window]
   accessor tids in a ring, and the level the number of distinct tids
   other than the accessing one, counting each tid's first occurrence
   only.  {!Cost.touch} keeps a running count instead; this is the
   oracle it must agree with. *)
module Recount = struct
  type t = { ring : int array; pos : int array }

  let create () =
    { ring = Array.make (Cost.nstripes * Cost.window) (-1); pos = Array.make Cost.nstripes 0 }

  let reset o =
    Array.fill o.ring 0 (Array.length o.ring) (-1);
    Array.fill o.pos 0 (Array.length o.pos) 0

  let touch o i ~tid =
    let base = i * Cost.window in
    o.ring.(base + o.pos.(i)) <- tid;
    o.pos.(i) <- (o.pos.(i) + 1) mod Cost.window;
    let level = ref 0 in
    for j = 0 to Cost.window - 1 do
      let t = o.ring.(base + j) in
      if t >= 0 && t <> tid then begin
        let dup = ref false in
        for k = 0 to j - 1 do
          if o.ring.(base + k) = t then dup := true
        done;
        if not !dup then incr level
      end
    done;
    !level
end

(* Seeded random access sequences over a few stripes, 1-12 threads, with
   the stripes reset mid-sequence: [touch] (by location) and
   [touch_stripe] (by cached index) return the recount's level at every
   access. *)
let prop_convoy_level_incremental =
  QCheck.Test.make ~count:300 ~name:"incremental convoy level = window recount"
    QCheck.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (nthreads, seed) ->
      let rng = Random.State.make [| seed |] in
      let locs = Array.init 4 (fun k -> Runtime.Loc.field (k * 7) "f") in
      let s = Cost.stripes () and o = Recount.create () in
      for step = 1 to 400 do
        if Random.State.int rng 150 = 0 then begin
          Cost.reset_stripes s;
          Recount.reset o
        end;
        let l = locs.(Random.State.int rng (Array.length locs)) in
        let i = Cost.stripe_of l.obj l.fld in
        if i <> Runtime.Loc.hash l land (Cost.nstripes - 1) then
          QCheck.Test.fail_reportf "stripe %d of %s is not its masked Loc.hash" i
            (Runtime.Loc.to_string l);
        let tid = Random.State.int rng nthreads in
        let got =
          if Random.State.bool rng then Cost.touch s l ~tid else Cost.touch_stripe s i ~tid
        in
        let want = Recount.touch o i ~tid in
        if got <> want then
          QCheck.Test.fail_reportf "step %d, stripe %d, tid %d: level %d, recount %d" step i
            tid got want
      done;
      true)

(* A recorder recycled across sessions charges exactly what a fresh one
   does: the convoy counts, like the rings, start from nothing. *)
let test_recycled_levels () =
  let open Light_core in
  let prep name =
    let bm = Option.get (Workloads.by_name name) in
    (bm, Light.prepare (Workloads.program bm))
  in
  let record ?recorder (bm, pp) =
    let r = Light.record_prepared ?recorder ~sched:(Workloads.scheduler ~seed:2 bm) ~seed:2 pp in
    (r.meter.units, r.meter.ops, Log.to_string r.log)
  in
  let queue = prep "mp-queue" and xalan = prep "dacapo-xalan" in
  let fresh = record queue in
  let recorder = Recorder.create (Bytes.make 1 Runtime.Plan.m_recorded) in
  ignore (record ~recorder xalan);
  let units, ops, log = record ~recorder queue in
  let f_units, f_ops, f_log = fresh in
  Alcotest.(check int) "units" f_units units;
  Alcotest.(check int) "ops" f_ops ops;
  Alcotest.(check bool) "log" true (String.equal f_log log)

let test_summarize () =
  let s = Stats.summarize [ 1.0; 3.0; 2.0; 10.0 ] in
  Alcotest.(check (float 0.001)) "avg" 4.0 s.average;
  Alcotest.(check (float 0.001)) "median" 2.5 s.median;
  Alcotest.(check (float 0.001)) "min" 1.0 s.minimum;
  Alcotest.(check (float 0.001)) "max" 10.0 s.maximum;
  let odd = Stats.summarize [ 5.0; 1.0; 3.0 ] in
  Alcotest.(check (float 0.001)) "odd median" 3.0 odd.median;
  let empty = Stats.summarize [] in
  Alcotest.(check (float 0.001)) "empty safe" 0.0 empty.average

let prop_summary_bounds =
  QCheck.Test.make ~count:200 ~name:"summary bounds"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.summarize xs in
      s.minimum <= s.average && s.average <= s.maximum && s.minimum <= s.median
      && s.median <= s.maximum)

let () =
  Alcotest.run "metrics"
    [
      ( "cost",
        [
          Alcotest.test_case "monotone in contention" `Quick test_cost_monotone_in_level;
          Alcotest.test_case "fast paths cheap" `Quick test_fast_paths_cheap;
          Alcotest.test_case "meter" `Quick test_meter;
          Alcotest.test_case "convoy tracking" `Quick test_stripes_convoy;
          Alcotest.test_case "stripe independence" `Quick test_stripes_independent;
          QCheck_alcotest.to_alcotest prop_convoy_level_incremental;
          Alcotest.test_case "recycled recorder charges as a fresh one" `Quick
            test_recycled_levels;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          QCheck_alcotest.to_alcotest prop_summary_bounds;
        ] );
    ]
