"""Exception types shared across the package."""


class XembodyError(Exception):
    """Base class for all package-specific errors."""


class DescriptionError(XembodyError):
    """A robot description document could not be parsed.

    Carries the offending element name and, when known, the source line.
    """

    def __init__(self, message: str, *, element: str | None = None, line: int | None = None):
        context = []
        if element is not None:
            context.append(f"element {element!r}")
        if line is not None:
            context.append(f"line {line}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.element = element
        self.line = line


class StructureError(XembodyError):
    """The link/joint graph is not a tree rooted at a single base link."""


class ValidationError(XembodyError):
    """A model violates one of its declared invariants."""


class AlignmentError(XembodyError):
    """Trajectory alignment failed; the message names the frame."""


class DatasetError(XembodyError):
    """Base class for demonstration dataset I/O failures."""


class DatasetFormatError(DatasetError):
    """A dataset file has the wrong layout, size, or byte order."""


class ChecksumError(DatasetError):
    """Stored and recomputed checksums disagree."""


class KernelBuildError(XembodyError):
    """A compiled kernel could not be built or loaded; the message names the compiler."""
