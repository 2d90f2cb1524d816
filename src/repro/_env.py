"""The one reader of the ``REPRO_*`` session-knob environment variables.

Every flag > environment > default knob (see
:data:`repro.flow.options.KNOBS`) reads its variable here, so the
reading rules cannot drift between modules: surrounding whitespace is
ignored and an empty or blank value means "unset".  Standard library
only — the lowest layers (e.g. :mod:`repro.mig.kernel`) import it.
"""

from __future__ import annotations

import os
from typing import Optional


def env_value(var: str) -> Optional[str]:
    """``$var`` with surrounding whitespace stripped; ``None`` when unset or blank."""
    return os.environ.get(var, "").strip() or None
