(* A store written as a functor; include_instance.ml instantiates it. *)

module Make (M : sig end) = struct
  type t = { a : Mutex.t }

  let take t = Mutex.protect t.a (fun () -> ())
end
