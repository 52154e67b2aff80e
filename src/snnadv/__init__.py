"""Spiking-network dynamics, surrogate-gradient attacks, and multi-model
adversarial evaluation at desk scale."""

import ctypes
import platform

from .attacks import AttackConfig, AttackReport, auto_saga, fgsm, mim, pgd, project, saga
from .attention import TinyAttentionNet, attention_rollout, ones_mask
from .ann import AnnNet, build_cnn, build_mlp
from .convert import convert_ann_to_snn, fine_tune
from .dynamics import NeuronConfig, SpikingLayer, SpikingNet, SynapseConfig, build_snn_mlp
from .harness import (EvalSet, multi_model_comparison, select_eval_set, surrogate_sweep,
                      transfer_matrix, transferability)
from .surrogate import SurrogateSpec, heaviside, surrogate_grad
from .train import Adam, SGD, evaluate, make_optimizer, train_epochs


def _keep_heap_resident():
    """Stop glibc from handing freed heap back to the OS between iterations.

    An attack iteration frees tens of MB of temporaries and the next one
    allocates them again. By default glibc serves large blocks with mmap and
    unmaps them on free, and returns free memory at the top of the heap to
    the OS once it passes a small threshold. So each iteration faulted its
    working set in again: 10 PGD iterations on the 2-block attention net at
    n=200 took about 180k minor page faults, against about 300 with this
    setting. Blocks up to 32 MiB now come from the heap, and up to 256 MiB
    of free heap stays mapped. A libc other than glibc, or a failed call,
    leaves the allocator as it is.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, 32 << 20)
        mallopt(M_TRIM_THRESHOLD, 256 << 20)
    except (OSError, AttributeError):
        pass


_keep_heap_resident()

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackReport", "auto_saga", "fgsm", "mim", "pgd", "project", "saga",
    "TinyAttentionNet", "attention_rollout", "ones_mask",
    "AnnNet", "build_cnn", "build_mlp",
    "convert_ann_to_snn", "fine_tune",
    "NeuronConfig", "SpikingLayer", "SpikingNet", "SynapseConfig", "build_snn_mlp",
    "EvalSet", "multi_model_comparison", "select_eval_set", "surrogate_sweep",
    "transfer_matrix", "transferability",
    "SurrogateSpec", "heaviside", "surrogate_grad",
    "Adam", "SGD", "evaluate", "make_optimizer", "train_epochs",
]
