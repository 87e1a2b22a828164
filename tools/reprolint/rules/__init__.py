"""Built-in reprolint rules; importing this package registers them."""

from . import (env_knobs, fault_seam, nan_masking, silent_fallback,
               store_keys)

__all__ = ["store_keys", "silent_fallback", "env_knobs",
           "nan_masking", "fault_seam"]
