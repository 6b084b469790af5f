"""Stream model and workload generators.

The paper evaluates on four real traces (CAIDA IP trace, a web document
stream, a university data-center trace and a Hadoop traffic trace) plus
synthetic Zipf streams.  The real traces are not redistributable, so this
package provides deterministic synthetic surrogates with matching
item-count / distinct-key / skew characteristics (see DESIGN.md for the
substitution rationale), alongside the Zipf generator the paper itself uses.
"""

from repro.streams.items import (
    Item,
    Stream,
    chunked,
    exact_counts,
    iter_key_value_chunks,
    total_value,
)
from repro.streams.synthetic import ZipfGenerator, zipf_stream, uniform_stream
from repro.streams.traces import (
    TraceSpec,
    TRACE_SPECS,
    ip_trace,
    web_stream,
    datacenter_trace,
    hadoop_trace,
    load_trace,
)
from repro.streams.readers import (
    write_trace_file,
    read_trace_file,
    iter_trace_items,
    iter_trace_batches,
)

__all__ = [
    "Item",
    "Stream",
    "chunked",
    "iter_key_value_chunks",
    "exact_counts",
    "total_value",
    "ZipfGenerator",
    "zipf_stream",
    "uniform_stream",
    "TraceSpec",
    "TRACE_SPECS",
    "ip_trace",
    "web_stream",
    "datacenter_trace",
    "hadoop_trace",
    "load_trace",
    "write_trace_file",
    "read_trace_file",
    "iter_trace_items",
    "iter_trace_batches",
]
