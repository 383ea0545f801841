(** A keyed observer registry.  Distinct keys compose; registering a key
    again replaces its entry, so installation is idempotent.  Registration
    is safe from any domain; notification reads a lock-free snapshot, so
    a change made mid-notification takes effect from the next one. *)

type 'f t

val create : unit -> 'f t

val add : 'f t -> key:string -> 'f -> unit
(** Register [f] under [key], replacing any entry with that key. *)

val remove : 'f t -> string -> unit
(** Remove the entry under this key (no-op if absent). *)

val is_empty : 'f t -> bool

val iter : 'f t -> ('f -> unit) -> unit
(** Apply to every registered observer, most recently registered first. *)
