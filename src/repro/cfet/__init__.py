"""Control-flow execution trees and interval-based path encoding (§3).

* :mod:`repro.cfet.cfet` -- per-method CFET built by symbolic execution,
  with Eytzinger-style node numbering;
* :mod:`repro.cfet.icfet` -- the interprocedural CFET: CFETs connected by
  call/return edges annotated with call-site ids and parameter-passing
  equations;
* :mod:`repro.cfet.encoding` -- interval-sequence path encodings: the merge
  rules of §4.2 (four cases), reversal for bar edges, and constraint
  decoding (Algorithm 1 plus interprocedural equation composition).
"""

from repro.cfet.cfet import Cfet, CfetNode, CallRecord, build_cfet, parent_id
from repro.cfet.icfet import Icfet, build_icfet
from repro.cfet.encoding import (
    Encoding,
    interval,
    call_elem,
    return_elem,
    merge,
    reverse,
    decode_constraint,
)

__all__ = [
    "Cfet",
    "CfetNode",
    "CallRecord",
    "build_cfet",
    "parent_id",
    "Icfet",
    "build_icfet",
    "Encoding",
    "interval",
    "call_elem",
    "return_elem",
    "merge",
    "reverse",
    "decode_constraint",
]
