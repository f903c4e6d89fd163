"""Stream datasets: synthetic processes (Section 7.1.1) and generative
simulators standing in for the paper's real-world datasets (Section 7.1.2).
"""

from .base import GenerativeStream, MaterializedStream, StreamDataset
from .markov import MarkovValueProcess, sample_categorical
from .simulators import (
    FoursquareSimulator,
    TaobaoSimulator,
    TaxiSimulator,
    zipf_weights,
)
from .synthetic import (
    BinaryStream,
    lns_probability_sequence,
    log_probability_sequence,
    make_constant,
    make_lns,
    make_log,
    make_sin,
    make_step,
    sin_probability_sequence,
    step_probability_sequence,
)
from .traces import (
    load_value_matrix,
    save_value_matrix,
    stream_from_events,
)
from .online import OnlineStream, decode_snapshot
from .windows import SlidingWindowSum

__all__ = [
    "StreamDataset",
    "MaterializedStream",
    "GenerativeStream",
    "OnlineStream",
    "decode_snapshot",
    "MarkovValueProcess",
    "sample_categorical",
    "BinaryStream",
    "make_lns",
    "make_sin",
    "make_log",
    "make_step",
    "make_constant",
    "lns_probability_sequence",
    "sin_probability_sequence",
    "log_probability_sequence",
    "step_probability_sequence",
    "TaxiSimulator",
    "FoursquareSimulator",
    "TaobaoSimulator",
    "zipf_weights",
    "SlidingWindowSum",
    "load_value_matrix",
    "save_value_matrix",
    "stream_from_events",
]
