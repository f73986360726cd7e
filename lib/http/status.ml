type t =
  | Ok
  | Partial_content
  | Moved_permanently
  | Not_modified
  | Bad_request
  | Forbidden
  | Not_found
  | Precondition_failed
  | Range_not_satisfiable
  | Request_timeout
  | Too_many_requests
  | Internal_server_error
  | Not_implemented
  | Service_unavailable

let code = function
  | Ok -> 200
  | Partial_content -> 206
  | Moved_permanently -> 301
  | Not_modified -> 304
  | Bad_request -> 400
  | Forbidden -> 403
  | Not_found -> 404
  | Precondition_failed -> 412
  | Range_not_satisfiable -> 416
  | Request_timeout -> 408
  | Too_many_requests -> 429
  | Internal_server_error -> 500
  | Not_implemented -> 501
  | Service_unavailable -> 503

let reason = function
  | Ok -> "OK"
  | Partial_content -> "Partial Content"
  | Moved_permanently -> "Moved Permanently"
  | Not_modified -> "Not Modified"
  | Bad_request -> "Bad Request"
  | Forbidden -> "Forbidden"
  | Not_found -> "Not Found"
  | Precondition_failed -> "Precondition Failed"
  | Range_not_satisfiable -> "Range Not Satisfiable"
  | Request_timeout -> "Request Timeout"
  | Too_many_requests -> "Too Many Requests"
  | Internal_server_error -> "Internal Server Error"
  | Not_implemented -> "Not Implemented"
  | Service_unavailable -> "Service Unavailable"

let line_fragment t = String.concat " " [ Digits.decimal (code t); reason t ]
