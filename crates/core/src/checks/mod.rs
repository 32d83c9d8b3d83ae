//! The four NPD analyses of §4.4: request-setting APIs, parameter checks,
//! failure notification, and invalid-response checks.

pub mod config;
pub mod connectivity;
pub mod notification;
pub mod response;

pub use config::{check_config, SiteConfig};
pub use connectivity::{
    is_guarded, is_guarded_strict, methods_invoking_connectivity, methods_observing_connectivity,
};
pub use notification::{check_notification, NotificationFinding};
pub use response::{check_response, ResponseFinding};
