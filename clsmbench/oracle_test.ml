(* Oracle self-test: plant one wrong answer of each kind the benchmark
   checks and show the oracle flags it, and that the right answers pass.
   Runs with `dune test clsmbench`. *)

open Clsmbench_lib

let value_len = 256
let key i = Printf.sprintf "%08d" i
let space = 100

let key_index k =
  match int_of_string_opt k with
  | Some i when i >= 0 && i < space && String.equal (key i) k -> Some i
  | _ -> None

let v ?(client = 0) ?(seq = 1) ?(counter = 0) k =
  Oracle.encode ~value_len ~key:k ~client ~seq ~counter

let rows ks = List.map (fun k -> (k, v k)) ks
let last = [| Array.make space (-1); Array.make space (-1) |]

let () =
  last.(0).(5) <- 7;
  last.(1).(5) <- 3;
  last.(1).(6) <- 2

let cases =
  [
    (* name, expected verdict, oracle verdict *)
    ("get: own key", true, Oracle.get_ok ~key:(key 1) (Some (v (key 1))));
    ("get: value of another key", false, Oracle.get_ok ~key:(key 1) (Some (v (key 2))));
    ("get: missing value", false, Oracle.get_ok ~key:(key 1) None);
    ("get: undecodable value", false, Oracle.get_ok ~key:(key 1) (Some (String.make value_len 'x')));
    ( "scan: ascending from start",
      true,
      Oracle.scan_ok ~key_index ~start:(key 10) ~limit:3 (rows [ key 10; key 11; key 12 ]) );
    ( "scan: not ascending",
      false,
      Oracle.scan_ok ~key_index ~start:(key 10) ~limit:3 (rows [ key 10; key 12; key 11 ]) );
    ( "scan: repeated key",
      false,
      Oracle.scan_ok ~key_index ~start:(key 10) ~limit:3 (rows [ key 10; key 11; key 11 ]) );
    ( "scan: starts before the start key",
      false,
      Oracle.scan_ok ~key_index ~start:(key 10) ~limit:3 (rows [ key 9; key 10; key 11 ]) );
    ( "scan: fewer rows than the limit",
      false,
      Oracle.scan_ok ~key_index ~start:(key 10) ~limit:3 (rows [ key 10; key 11 ]) );
    ( "scan: row outside the key space",
      false,
      Oracle.scan_ok ~key_index ~start:(key 98) ~limit:3 (rows [ key 98; key 99; key 100 ]) );
    ( "scan: row whose value is another key's",
      false,
      Oracle.scan_ok ~key_index ~start:(key 10) ~limit:2 [ (key 10, v (key 10)); (key 11, v (key 12)) ]
    );
    ( "final: client 0's last write",
      true,
      Oracle.final_ok ~last ~index:5 ~key:(key 5) (Some (v ~client:0 ~seq:7 (key 5))) );
    ( "final: client 1's last write",
      true,
      Oracle.final_ok ~last ~index:5 ~key:(key 5) (Some (v ~client:1 ~seq:3 (key 5))) );
    ( "final: preload value of an unwritten key",
      true,
      Oracle.final_ok ~last ~index:4 ~key:(key 4)
        (Some (v ~client:Oracle.preload ~seq:0 (key 4))) );
    ( "final: a client's earlier write",
      false,
      Oracle.final_ok ~last ~index:5 ~key:(key 5) (Some (v ~client:0 ~seq:6 (key 5))) );
    ( "final: preload value of a written key",
      false,
      Oracle.final_ok ~last ~index:6 ~key:(key 6)
        (Some (v ~client:Oracle.preload ~seq:0 (key 6))) );
    ( "final: a write no client made",
      false,
      Oracle.final_ok ~last ~index:4 ~key:(key 4) (Some (v ~client:0 ~seq:1 (key 4))) );
    ("final: missing value", false, Oracle.final_ok ~last ~index:5 ~key:(key 5) None);
    ("rmw: counters sum to the RMWs", true, Oracle.counters_ok ~sum:42 ~rmws:42);
    ("rmw: a lost update", false, Oracle.counters_ok ~sum:41 ~rmws:42);
  ]

let () =
  let wrong =
    List.filter
      (fun (name, expected, got) ->
        Printf.printf "%-45s %s\n" name
          (if got = expected then if expected then "accepted" else "flagged" else "WRONG VERDICT");
        got <> expected)
      cases
  in
  if wrong <> [] then exit 1
