"""D006 fixture: a package ``__init__`` re-exporting through the helper."""

from repro._lazy import lazy_exports

__all__ = ["helper"]

__getattr__, __dir__ = lazy_exports(
    __name__, {"repro.d006_eager.impl": ("helper",)}
)
