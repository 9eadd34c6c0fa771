"""Home-Slice-selection (HSL) functions.

On an L1 TLB miss, the HSL maps the missing virtual address to the chiplet
whose L2 TLB slice (and page walkers) must service it:

* :class:`PrivateHSL` — the private-TLB design: every address is serviced
  by the requester's own slice.
* :class:`InterleaveHSL` — the shared-TLB design: a MOD of the VA at some
  granularity (conventionally the page size) picks the home slice.
* :class:`XorFoldHSL` — a shared-TLB variant that XOR-folds the block
  index's bit groups instead of taking a MOD.  Folding only lands in
  ``range(num_chiplets)`` when the count is a power of two, so the class
  refuses non-power-of-two machines with a clear error;
  :func:`shared_hsl` falls back to MOD instead.
* :class:`DynamicHSL` — MGvm's per-kernel function.  It starts in
  *coarse* mode (granularity a multiple of 2 MB chosen from LASP's data
  placement, see :mod:`repro.core.mgvm`) and can be switched to *fine*
  (page-granularity) mode by the dHSL-balance controller.  Because the
  switch message reaches chiplets asynchronously, each hardware component
  keeps its own copy of the HSL; :class:`DynamicHSL` therefore exposes a
  per-component view.

Every HSL works for *any* ``num_chiplets >= 1`` — MOD interleaving does
not care whether the count is a power of two — except the XOR fold,
which is pow2-only by construction.
"""

import logging

log = logging.getLogger("repro.hsl")


def is_pow2(value):
    """True iff ``value`` is a positive power of two."""
    return value >= 1 and (value & (value - 1)) == 0


class PrivateHSL:
    """Every request is serviced by the requester's own slice."""

    is_dynamic = False

    def home(self, va, requester, component=None):
        return requester

    def __repr__(self):
        return "PrivateHSL()"


class InterleaveHSL:
    """MOD-interleave of the VA across slices at a fixed granularity."""

    is_dynamic = False

    def __init__(self, granularity, num_chiplets):
        if granularity < 1:
            raise ValueError("granularity must be >= 1")
        if num_chiplets < 1:
            raise ValueError("num_chiplets must be >= 1")
        self.granularity = int(granularity)
        self.num_chiplets = num_chiplets

    def home(self, va, requester=None, component=None):
        return (va // self.granularity) % self.num_chiplets

    def __repr__(self):
        return "InterleaveHSL(granularity=%d, chiplets=%d)" % (
            self.granularity,
            self.num_chiplets,
        )


class XorFoldHSL:
    """XOR-fold of the block index across slices (pow2 counts only).

    The block index's successive ``log2(num_chiplets)``-bit groups are
    XORed together, spreading strided access patterns whose stride is a
    multiple of ``granularity * num_chiplets`` (which a plain MOD maps
    onto a single slice) across all slices.  The fold is only a valid
    slice id when ``num_chiplets`` is a power of two; other counts raise
    ``ValueError`` — use :func:`shared_hsl`, which falls back to MOD.
    """

    is_dynamic = False

    def __init__(self, granularity, num_chiplets):
        if granularity < 1:
            raise ValueError("granularity must be >= 1")
        if not is_pow2(num_chiplets):
            raise ValueError(
                "XorFoldHSL requires a power-of-two chiplet count "
                "(got %d); use shared_hsl(..., mode='xor') to fall back "
                "to MOD interleaving on other counts" % num_chiplets
            )
        self.granularity = int(granularity)
        self.num_chiplets = num_chiplets
        self._bits = num_chiplets.bit_length() - 1
        self._mask = num_chiplets - 1

    def home(self, va, requester=None, component=None):
        if self._bits == 0:  # single chiplet: everything is home
            return 0
        block = va // self.granularity
        folded = 0
        while block:
            folded ^= block & self._mask
            block >>= self._bits
        return folded

    def __repr__(self):
        return "XorFoldHSL(granularity=%d, chiplets=%d)" % (
            self.granularity,
            self.num_chiplets,
        )


def shared_hsl(num_chiplets, granularity, mode="mod"):
    """Build a shared-TLB HSL, validating the chiplet count.

    ``mode="mod"`` returns the conventional :class:`InterleaveHSL`;
    ``mode="xor"`` returns :class:`XorFoldHSL` when ``num_chiplets`` is a
    power of two and *falls back to MOD* (with a warning) otherwise, so a
    3- or 6-chiplet sweep never crashes deep inside a run.
    """
    if num_chiplets < 1:
        raise ValueError("num_chiplets must be >= 1 (got %d)" % num_chiplets)
    if mode == "mod":
        return InterleaveHSL(granularity, num_chiplets)
    if mode == "xor":
        if not is_pow2(num_chiplets):
            log.warning(
                "XOR-fold HSL needs a power-of-two chiplet count; "
                "falling back to MOD interleaving for %d chiplets",
                num_chiplets,
            )
            return InterleaveHSL(granularity, num_chiplets)
        return XorFoldHSL(granularity, num_chiplets)
    raise ValueError("bad shared HSL mode %r (use 'mod' or 'xor')" % mode)


def shared_default_hsl(num_chiplets, page_size):
    """The conventional shared-TLB HSL: page-granularity interleave."""
    return shared_hsl(num_chiplets, page_size, mode="mod")


class DynamicHSL:
    """MGvm's per-kernel HSL with asynchronous coarse<->fine switching.

    ``component`` identifies which hardware unit is asking — a
    ``(chiplet, role)`` pair with role in ``{"cu", "rtu", "slice"}``.
    Each component owns a private granularity register which the balance
    controller updates when that component receives the switch broadcast.
    ``component=None`` reads the commanded (CP-side) state.
    """

    is_dynamic = True
    ROLES = ("cu", "rtu", "slice")

    def __init__(self, coarse_granularity, fine_granularity, num_chiplets):
        if coarse_granularity < fine_granularity:
            raise ValueError("coarse granularity must be >= fine granularity")
        if num_chiplets < 1:
            raise ValueError(
                "num_chiplets must be >= 1 (got %d)" % num_chiplets
            )
        self.coarse_granularity = int(coarse_granularity)
        self.fine_granularity = int(fine_granularity)
        self.num_chiplets = num_chiplets
        self.commanded = "coarse"
        self._views = {
            (chiplet, role): self.coarse_granularity
            for chiplet in range(num_chiplets)
            for role in self.ROLES
        }
        self.switches_to_fine = 0
        self.switches_to_coarse = 0

    def home(self, va, requester=None, component=None):
        if component is not None:
            granularity = self._views[component]
        elif self.commanded == "coarse":
            granularity = self.coarse_granularity
        else:
            granularity = self.fine_granularity
        return (va // granularity) % self.num_chiplets

    def coarse_home(self, va):
        """Home under dHSL-coarse regardless of mode (entry tagging)."""
        return (va // self.coarse_granularity) % self.num_chiplets

    def mode_of(self, component):
        fine = self._views[component] == self.fine_granularity
        return "fine" if fine else "coarse"

    # -- switching (driven by the balance controller) -------------------------

    def command(self, mode):
        """Record the CP's decision; components update via apply_at."""
        if mode not in ("coarse", "fine"):
            raise ValueError("mode must be 'coarse' or 'fine'")
        if mode == self.commanded:
            return False
        self.commanded = mode
        if mode == "fine":
            self.switches_to_fine += 1
        else:
            self.switches_to_coarse += 1
        return True

    def apply(self, component, mode):
        """A component receives the switch message and updates its copy."""
        self._views[component] = (
            self.fine_granularity if mode == "fine" else self.coarse_granularity
        )

    def components(self):
        return list(self._views)

    def __repr__(self):
        return "DynamicHSL(coarse=%d, fine=%d, chiplets=%d, commanded=%s)" % (
            self.coarse_granularity,
            self.fine_granularity,
            self.num_chiplets,
            self.commanded,
        )
