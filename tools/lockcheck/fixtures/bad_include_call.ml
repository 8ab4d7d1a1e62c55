(* Order inversion through an included functor instance: take acquires
   a, and the spec orders a before b. *)

type u = { b : Mutex.t }

let wrong u t =
  Mutex.protect u.b (fun () -> Include_instance.take t (* BAD: LC001 *))
