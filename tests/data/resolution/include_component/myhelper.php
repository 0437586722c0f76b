<?php
move_uploaded_file($f['tmp_name'], '/var/www/uploads/avatar.jpg');
